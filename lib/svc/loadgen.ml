open Specpmt_pmem
module Hist = Specpmt_obs.Hist
module Metrics = Specpmt_obs.Metrics
module Json = Specpmt_obs.Json

(* Deterministic closed-loop load generator: [clients] simulated clients
   each keep at most one request outstanding; a client whose request was
   shed by admission holds it and retries after the next drain (the
   retry hint in action).  Keys are drawn Zipf-skewed, the read/write
   mix is a seeded coin, and every write carries a unique value so crash
   audits can attribute any cell state to the op that produced it. *)

type config = {
  clients : int;
  ops : int;  (** total operations to complete *)
  read_frac : float;  (** probability an op is a read *)
  skew : float;  (** Zipf theta; [<= 0] is uniform *)
  seed : int;
}

(* Inverse-CDF Zipf over [0, n): cumulative weights 1/(k+1)^theta are
   precomputed once, each draw is one float and a binary search. *)
let zipf_sampler ~n ~theta st =
  if theta <= 0.0 then fun () -> Random.State.int st n
  else begin
    let cum = Array.make n 0.0 in
    let acc = ref 0.0 in
    for k = 0 to n - 1 do
      acc := !acc +. (1.0 /. (float_of_int (k + 1) ** theta));
      cum.(k) <- !acc
    done;
    let total = !acc in
    fun () ->
      let u = Random.State.float st total in
      let lo = ref 0 and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cum.(mid) > u then hi := mid else lo := mid + 1
      done;
      !lo
  end

(* THE one seeded drawer: key draw, then mix coin, then a unique write
   value keyed on the draw's position.  Both {!op_stream} and {!run}
   call it, so the stream a config describes and the ops the
   closed-loop clients actually issue are the same sequence by
   construction (previously the two open-coded copies of this logic
   could drift). *)
let drawer cfg ~keys =
  let st = Random.State.make [| 0x5EC; cfg.seed |] in
  let draw_key = zipf_sampler ~n:keys ~theta:cfg.skew st in
  let pos = ref 0 in
  fun () ->
    let key = draw_key () in
    let op =
      if Random.State.float st 1.0 < cfg.read_frac then Service.Read
      else Service.Write (1_000_000 + !pos)
    in
    incr pos;
    (key, op)

(* The open-coded op stream the closed-loop generator would issue:
   (key, op) pairs in issue order, from the same {!drawer}.  The
   shard-per-domain data plane consumes this directly — its router
   forms batches from the stream positionally, so batch composition is
   a pure function of (config, keys) and never of domain timing. *)
let op_stream cfg ~keys =
  if cfg.ops < 0 then invalid_arg "Loadgen.op_stream: ops < 0";
  let next = drawer cfg ~keys in
  let out = Array.make cfg.ops (0, Service.Read) in
  (* explicit loop: Array.init's evaluation order is unspecified and the
     RNG draws must happen in issue order *)
  for i = 0 to cfg.ops - 1 do
    out.(i) <- next ()
  done;
  out

type shard_report = {
  sh_id : int;
  sh_ops : int;
  sh_rejected : int;
  sh_batches : int;
  sh_sealed : int;
  sh_max_inflight : int;
  sh_latency : Hist.snapshot;
  sh_ops_per_ms : float;
}

type report = {
  r_config : config;
  svc_config : Service.config;
  span_ns : float;
  total_ops : int;
  reads : int;
  writes : int;
  rejected : int;
  retries : int;
  batches : int;
  sealed_records : int;
  fences : int;
  fences_per_write : float;
  latency : Hist.snapshot;  (** all ops, all shards *)
  shards : shard_report list;
}

type client_state = Free | Hold of int * Service.op | Inflight

let run ?(on_issue = fun (_ : int * Service.op) -> ()) svc cfg =
  if cfg.clients < 1 then invalid_arg "Loadgen.run: clients < 1";
  if cfg.ops < 0 then invalid_arg "Loadgen.run: ops < 0";
  let scfg = Service.config svc in
  let pm = Service.pm svc in
  let next_op = drawer cfg ~keys:scfg.Service.keys in
  let state = Array.make cfg.clients Free in
  (* per-client first-issue timestamp: latency is measured from the
     moment the client first tried to submit, so time spent in [Hold]
     after an admission shed shows up in the histogram (measuring from
     the eventually-accepted [c_enq_ns] hides exactly the overload
     queueing the histogram exists to expose) *)
  let issue_ns = Array.make cfg.clients 0.0 in
  let lat = Hist.create () in
  let issued = ref 0 in
  let completed = ref 0 in
  let reads = ref 0 in
  let writes = ref 0 in
  let retries = ref 0 in
  (* measure from here: pool setup and adoption are excluded *)
  let before = Stats.copy (Pmem.stats pm) in
  let now () = Pmem.now pm in
  let on_ack (c : Service.completion) =
    incr completed;
    (match c.Service.c_op with
    | Service.Read | Service.Scan _ -> incr reads
    | Service.Write _ | Service.Rmw _ -> incr writes);
    Hist.observe lat
      (int_of_float (c.Service.ack_ns -. issue_ns.(c.Service.c_client)));
    state.(c.Service.c_client) <- Free
  in
  while !completed < cfg.ops do
    Array.iteri
      (fun i s ->
        match s with
        | Free when !issued < cfg.ops ->
            let (key, op) as drawn = next_op () in
            on_issue drawn;
            incr issued;
            issue_ns.(i) <- now ();
            state.(i) <- Hold (key, op)
        | _ -> ())
      state;
    Array.iteri
      (fun i s ->
        match s with
        | Hold (key, op) -> (
            match Service.submit svc ~client:i ~key op with
            | Admission.Accepted -> state.(i) <- Inflight
            | Admission.Rejected _ ->
                (* keep holding; the next drain frees capacity *)
                incr retries)
        | _ -> ())
      state;
    ignore (Service.drain ~on_ack svc)
  done;
  let d = Stats.diff before (Pmem.stats pm) in
  let fences = d.Stats.fences in
  let fences_per_write =
    float_of_int fences /. float_of_int (max 1 !writes)
  in
  Metrics.set_gauge (Metrics.gauge "svc.fences_per_txn") fences_per_write;
  let span_ns = d.Stats.ns in
  let ops_per_ms n =
    if span_ns <= 0.0 then 0.0 else float_of_int n /. (span_ns /. 1e6)
  in
  let shards =
    List.init scfg.Service.shards (fun i ->
        let s = Service.shard_stats svc i in
        {
          sh_id = s.Service.s_id;
          sh_ops = s.Service.s_ops;
          sh_rejected = s.Service.s_rejected;
          sh_batches = s.Service.s_batches;
          sh_sealed = s.Service.s_sealed;
          sh_max_inflight = s.Service.s_max_inflight;
          sh_latency = s.Service.s_latency;
          sh_ops_per_ms = ops_per_ms s.Service.s_ops;
        })
  in
  {
    r_config = cfg;
    svc_config = scfg;
    span_ns;
    total_ops = !completed;
    reads = !reads;
    writes = !writes;
    rejected = Service.rejected svc;
    retries = !retries;
    batches = List.fold_left (fun n s -> n + s.sh_batches) 0 shards;
    sealed_records = List.fold_left (fun n s -> n + s.sh_sealed) 0 shards;
    fences;
    fences_per_write;
    latency = Hist.snapshot lat;
    shards;
  }

let shard_to_json s =
  Json.Obj
    [
      ("shard", Json.Int s.sh_id);
      ("ops", Json.Int s.sh_ops);
      ("rejected", Json.Int s.sh_rejected);
      ("batches", Json.Int s.sh_batches);
      ("sealed_records", Json.Int s.sh_sealed);
      ("max_inflight", Json.Int s.sh_max_inflight);
      ("ops_per_ms", Json.Float s.sh_ops_per_ms);
      ("latency_ns", Hist.to_json s.sh_latency);
    ]

let report_to_json r =
  Json.Obj
    [
      ("shards", Json.Int r.svc_config.Service.shards);
      ("batch_max", Json.Int r.svc_config.Service.batch_max);
      ("depth", Json.Int r.svc_config.Service.depth);
      ("keys", Json.Int r.svc_config.Service.keys);
      ("clients", Json.Int r.r_config.clients);
      ("read_frac", Json.Float r.r_config.read_frac);
      ("skew", Json.Float r.r_config.skew);
      ("seed", Json.Int r.r_config.seed);
      ("span_ns", Json.Float r.span_ns);
      ("total_ops", Json.Int r.total_ops);
      ("reads", Json.Int r.reads);
      ("writes", Json.Int r.writes);
      ("rejected", Json.Int r.rejected);
      ("retries", Json.Int r.retries);
      ("batches", Json.Int r.batches);
      ("sealed_records", Json.Int r.sealed_records);
      ("fences", Json.Int r.fences);
      ("fences_per_write", Json.Float r.fences_per_write);
      ("latency_ns", Hist.to_json r.latency);
      ("per_shard", Json.List (List.map shard_to_json r.shards));
    ]

let pp ppf r =
  let q s p = Hist.quantile s p in
  Fmt.pf ppf
    "svc: %d shards, batch_max %d, depth %d, %d keys, %d clients@\n"
    r.svc_config.Service.shards r.svc_config.Service.batch_max
    r.svc_config.Service.depth r.svc_config.Service.keys r.r_config.clients;
  Fmt.pf ppf
    "  %d ops (%d reads / %d writes), %d rejected, %d retries@\n"
    r.total_ops r.reads r.writes r.rejected r.retries;
  Fmt.pf ppf
    "  %d batches, %d sealed records, %d fences (%.3f fences/write)@\n"
    r.batches r.sealed_records r.fences r.fences_per_write;
  Fmt.pf ppf "  latency ns p50=%d p90=%d p99=%d, %.1f ops/ms total@\n"
    (q r.latency 0.5) (q r.latency 0.9) (q r.latency 0.99)
    (List.fold_left (fun a s -> a +. s.sh_ops_per_ms) 0.0 r.shards);
  List.iter
    (fun s ->
      Fmt.pf ppf
        "    shard %d: %6d ops %6.1f ops/ms p99=%-8d rejected=%d \
         max_inflight=%d@\n"
        s.sh_id s.sh_ops s.sh_ops_per_ms
        (q s.sh_latency 0.99)
        s.sh_rejected s.sh_max_inflight)
    r.shards
