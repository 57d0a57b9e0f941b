(* perfbench: the repository's end-to-end benchmark.

     perfbench.exe --workload ycsb-a-64k|ycsb-e-16k --seed N --seconds S
                   --trace 0|1

   Every workload drives the serial sharded service (4 shards, batch_max
   8, depth 32) on the default device (64 MiB image, 2 MiB simulated
   cache, no eADR) with [Ledger.params] (the Spec_soft defaults with
   adaptive reclamation), and repeats, while the next one is expected to
   end within [--seconds] of the start (at least twice), one repetition
   of:

   - set-up: generate the seeded YCSB stream, format a device,
     Service.create (also timed on its own 7 times: setup_s);
   - saturation pass: closed loop over the first part of the stream,
     submitting until a shed, then draining (host and modelled clocks);
   - paced pass: Openloop.run over the rest, Poisson arrivals at a fixed
     simulated rate (CO-safe latency from scheduled arrival);
   - Pmem.crash, Service.recover and a full-table audit.

   Each run also sweeps Crashmc.explore over every crashmc target, which
   is the only code here that runs every backend's run_tx and recovery.

   A pure sequential model (Oracle) checks every saturation-pass
   completion, the table after both passes and after recovery, the data
   plane's completions and table, and every crashmc case.  The last line
   of standard output is one JSON object: end-to-end metrics with
   [--trace 0] (set-up time, allocated words and the modelled clock),
   per-layer metrics with [--trace 1] (counters, spans, wall-clock
   throughput, the layer ledger and its reconciliation).  The exit code
   is 1 when any check failed. *)

open Specpmt_pmem
module Pmem_config = Specpmt_pmem.Config
module Heap = Specpmt_pmalloc.Heap
module Ctx = Specpmt_txn.Ctx
module Pbtree = Specpmt_pstruct.Pbtree
module Shadow = Specpmt_pstruct.Shadow
module Service = Specpmt_svc.Service
module Scenario = Specpmt_svc.Scenario
module Openloop = Specpmt_svc.Openloop
module Dataplane = Specpmt_svc.Dataplane
module Admission = Specpmt_svc.Admission
module Oindex = Specpmt_svc.Oindex
module Crashmc = Specpmt_crashmc.Crashmc
module Metrics = Specpmt_obs.Metrics
module Hist = Specpmt_obs.Hist

let shards = 4
let batch_max = 8
let depth = 32

(* set-ups timed on their own in an untraced run: setup_s is their median *)
let setup_trials = 7

type workload = {
  name : string;
  mix : Scenario.mix;
  keys : int;
  sat_ops : int;  (* saturation pass: the first [sat_ops] ops of the stream *)
  paced_ops : int;  (* paced pass: the next [paced_ops] *)
  rate : float;  (* paced arrival rate, ops per simulated second *)
}

(* ycsb-a-64k: the write path at a table (512 KiB) plus log and tree
   traffic that churn through the 2 MiB simulated cache, with 16,384-cell
   adoption transactions per shard.  ycsb-e-16k: ordered-index reads on
   a working set that fits the cache.  Paced rates sit near 0.45x of
   each mix's measured capacity. *)
let workloads =
  [
    { name = "ycsb-a-64k"; mix = Scenario.A; keys = 65_536; sat_ops = 80_000;
      paced_ops = 40_000; rate = 2_000_000.0 };
    { name = "ycsb-e-16k"; mix = Scenario.E; keys = 16_384; sat_ops = 40_000;
      paced_ops = 80_000; rate = 8_000_000.0 };
  ]

let median = Ledger.median
let fi = float_of_int

(* Check tallies: [attempted] counts every check made (each saturation
   completion, each paced op, each audited key, each crashmc case),
   [failed] the ones that disagreed with the model. *)
let attempted = ref 0
let failed = ref 0

let check what ~n ~bad =
  attempted := !attempted + n;
  failed := !failed + bad;
  if bad > 0 then Printf.eprintf "perfbench: %s: %d of %d checks failed\n%!" what bad n

(* Quantile of a power-of-two-bucket histogram, interpolated linearly
   inside the bucket holding the rank and clamped to [min, max]: a pure
   function of the snapshot that moves smoothly with the samples. *)
let quantile (s : Hist.snapshot) q =
  let rank = Float.max 1.0 (Float.ceil (q *. fi s.Hist.count)) in
  let rec go seen = function
    | [] -> fi s.Hist.max
    | (lo, n) :: rest ->
        if fi (seen + n) >= rank then
          let hi = if lo = 0 then 0 else (2 * lo) - 1 in
          let v = fi lo +. ((rank -. fi seen) /. fi n *. fi (hi - lo)) in
          Float.min (fi s.Hist.max) (Float.max (fi s.Hist.min) v)
        else go (seen + n) rest
  in
  go 0 s.Hist.buckets

let counter name = fi (Metrics.counter_value (Metrics.counter name))

(* ---------- one repetition of a service workload ---------- *)

type rep = {
  setup_s : float;
  stream_s : float;
  create_s : float;
  host_s : float;  (* saturation pass *)
  words_per_op : float;  (* saturation pass *)
  recover_s : float;
  modelled : (string * string * float) list;
      (* end-to-end modelled rows (name, unit, value): must repeat exactly *)
  counters : (string * string * float) list;  (* per-layer, likewise *)
  submit_ns : float array;  (* traced reps: per submit call *)
  drain_ns_per_op : float array;  (* traced reps: per drain, over its acks *)
  rebuild_ms : float;
  tally : Scenario.tally;  (* op kinds of the saturation pass *)
}

(* Set-up: generate the stream, format a device, Service.create.  Also
   returns the host seconds of the stream and of the rest. *)
let setup w ~seed ~root =
  let t0 = Span.now () in
  let stream =
    Span.with_ ~parent:root "scenario.op_stream" (fun () ->
        Scenario.op_stream (Scenario.spec w.mix)
          ~ops:(w.sat_ops + w.paced_ops) ~keys:w.keys ~seed)
  in
  let t1 = Span.now () in
  let pm = Pmem.create ~seed Pmem_config.default in
  let heap = Heap.create pm in
  let svc =
    Span.with_ ~parent:root "service.create" (fun () ->
        Service.create ~params:Ledger.params heap
          { Service.shards; batch_max; depth; keys = w.keys })
  in
  let t2 = Span.now () in
  (stream, pm, heap, svc, t1 -. t0, t2 -. t1)

let rep w ~seed ~(expected : int array) ~(final : Oracle.t) ~traced =
  Metrics.reset_all ();
  Span.set_enabled traced;
  let root = Span.start w.name in
  let stream, pm, heap, svc, stream_s, create_s = setup w ~seed ~root in
  (* saturation pass *)
  let n = w.sat_ops in
  let got = Array.make n min_int in
  let drain_of = Array.make (if traced then n else 0) (-1) in
  let cur_drain = ref (-1) in
  let sat = Span.start ~parent:root "saturation" in
  let on_ack (c : Service.completion) =
    got.(c.Service.c_client) <- c.Service.value;
    if traced then drain_of.(c.Service.c_client) <- !cur_drain
  in
  let drain () =
    let id = Span.start ~parent:sat "service.drain" in
    cur_drain := id;
    ignore (Service.drain ~on_ack svc);
    Span.stop id
  in
  let st0 = Stats.copy (Pmem.stats pm) in
  let gc0 = Gc.quick_stat () in
  let h0 = Span.now () in
  for i = 0 to n - 1 do
    let key, op = stream.(i) in
    let accepted = ref false in
    while not !accepted do
      let id = Span.start ~parent:sat "service.submit" in
      let v = Service.submit svc ~client:i ~key op in
      Span.stop id;
      match v with
      | Admission.Accepted -> accepted := true
      | Admission.Rejected _ -> drain ()
    done
  done;
  drain ();
  let host_s = Span.now () -. h0 in
  let gc1 = Gc.quick_stat () in
  Span.stop sat;
  let d = Stats.diff st0 (Pmem.stats pm) in
  let words =
    gc1.Gc.minor_words -. gc0.Gc.minor_words
    +. (gc1.Gc.major_words -. gc0.Gc.major_words)
    -. (gc1.Gc.promoted_words -. gc0.Gc.promoted_words)
  in
  check (w.name ^ " saturation completions") ~n
    ~bad:(Oracle.completion_failures ~expected:(Array.sub expected 0 n) ~got);
  let per_op x = x /. fi n in
  let tally = Scenario.tally (Array.sub stream 0 n) in
  let stats = List.init shards (Service.shard_stats svc) in
  let sum f = fi (List.fold_left (fun a s -> a + f s) 0 stats) in
  let batches = sum (fun s -> s.Service.s_batches) in
  let sealed = sum (fun s -> s.Service.s_sealed) in
  let trees () = List.init shards (Oindex.tree (Service.oindex svc)) in
  let shadow_totals () =
    List.fold_left
      (fun (h, m, r) t ->
        match Pbtree.shadow t with
        | Some sh ->
            let h', m', r' = Shadow.totals sh in
            (h + h', m + m', r + r')
        | None -> (h, m, r))
      (0, 0, 0) (trees ())
  in
  let hits, misses, _ = shadow_totals () in
  let sat_counters =
    [
      ("pmem.loads_per_op", "count", per_op (fi d.Stats.loads));
      ("pmem.stores_per_op", "count", per_op (fi d.Stats.stores));
      ("pmem.clwbs_per_op", "count", per_op (fi d.Stats.clwbs));
      ("pmem.fences_per_op", "count", per_op (fi d.Stats.fences));
      ("pmem.pm_write_lines_per_op", "count", per_op (fi d.Stats.pm_write_lines));
      ("pmem.pm_read_lines_per_op", "count", per_op (fi d.Stats.pm_read_lines));
      ("pmem.evictions_per_op", "count", per_op (fi d.Stats.evictions));
      ("pmem.sim_ns_per_op", "ns", per_op d.Stats.ns);
      ("pmem.sim_bg_ns_per_op", "ns", per_op d.Stats.bg_ns);
      ("group_commit.batch_size_mean", "count",
        Hist.mean (Hist.snapshot (Metrics.histogram "svc.batch_size")));
      ("group_commit.sealed_per_batch", "count", sealed /. batches);
      ("group_commit.batches_per_op", "count", per_op batches);
      ("reclaim.cycles.saturation", "count", counter "reclaim.cycles");
      ("reclaim.entries_scanned_per_op", "count", per_op (counter "reclaim.entries_scanned"));
      ("reclaim.entries_live_per_op", "count", per_op (counter "reclaim.entries_live"));
      ("reclaim.bg_ns_per_op", "ns", per_op (counter "reclaim.bg_ns"));
      ("shadow.hits_per_op", "count", per_op (fi hits));
      ("shadow.misses", "count", fi misses);
      ("service.rejects_per_op", "count", per_op (fi (Service.rejected svc)));
    ]
  in
  let modelled =
    [
      ("sim_kops", "kops/s", fi n /. (d.Stats.ns /. 1e9) /. 1e3);
      ("fences_per_op", "count", per_op (fi d.Stats.fences));
      ( "write_amp", "ratio",
        fi (Stats.pm_write_bytes d) /. fi (8 * (tally.Scenario.t_writes + tally.Scenario.t_rmws)) );
      ("space_amp", "ratio", fi (Heap.used_bytes heap) /. fi (8 * w.keys));
    ]
  in
  (* paced pass *)
  let paced = Array.sub stream n w.paced_ops in
  let r =
    Span.with_ ~parent:root "openloop.run" (fun () ->
        Openloop.run svc { Openloop.rate = w.rate; arrivals = Openloop.Poisson; seed } paced)
  in
  check (w.name ^ " paced acks") ~n:w.paced_ops
    ~bad:(abs (w.paced_ops - r.Openloop.latency.Hist.count));
  let oidx = Service.oindex svc in
  let table what =
    check (w.name ^ " " ^ what) ~n:w.keys
      ~bad:
        (Oracle.table_failures final ~value:(Service.peek svc)
           ~populated:(Some (Oindex.is_populated (Service.oindex svc))))
  in
  table "table after both passes";
  let lat = r.Openloop.latency in
  let run_counters =
    [
      ("reclaim.cycles", "count", counter "reclaim.cycles");
      ("oindex.populated_keys", "count", fi (Oindex.populated_count oidx));
      ( "pbtree.height", "count",
        fi (List.fold_left (fun h t -> max h (Pbtree.height (Ctx.peek_ctx pm) t)) 0 (trees ())) );
      ("openloop.max_backlog", "count", fi r.Openloop.max_backlog);
      ("openloop.attempts_per_op", "count", fi r.Openloop.attempts /. fi r.Openloop.ops);
    ]
  in
  (* crash, recover, audit *)
  Span.with_ ~parent:root "pmem.crash" (fun () -> Pmem.crash pm);
  let rs0 = Stats.copy (Pmem.stats pm) in
  let scanned0 = counter "recover.records_scanned" in
  let restored0 = counter "recover.cells_restored" in
  let r0 = Span.now () in
  Span.with_ ~parent:root "service.recover" (fun () -> Service.recover svc);
  let recover_s = Span.now () -. r0 in
  let rd = Stats.diff rs0 (Pmem.stats pm) in
  table "table after crash and recovery";
  let _, _, rebuild_ns = shadow_totals () in
  Span.stop root;
  let recover_counters =
    [
      ("recover.records_scanned", "count", counter "recover.records_scanned" -. scanned0);
      ("recover.cells_restored", "count", counter "recover.cells_restored" -. restored0);
    ]
  in
  let modelled =
    modelled
    @ [
        ("sim_p50_us", "us", quantile lat 0.50 /. 1e3);
        ("sim_p99_us", "us", quantile lat 0.99 /. 1e3);
        ("sim_mean_us", "us", Hist.mean lat /. 1e3);
        ("sim_recover_ms", "ms", rd.Stats.ns /. 1e6);
      ]
  in
  let spans name = List.map Span.duration (Span.ids ~from:root name) in
  let drain_ns_per_op =
    if not traced then [||]
    else begin
      let acks = Hashtbl.create 1024 in
      Array.iter
        (fun id -> Hashtbl.replace acks id (1 + Option.value ~default:0 (Hashtbl.find_opt acks id)))
        drain_of;
      Array.of_list
        (List.filter_map
           (fun id ->
             match Hashtbl.find_opt acks id with
             | Some k -> Some (Span.duration id *. 1e9 /. fi k)
             | None -> None)
           (Span.ids ~from:root "service.drain"))
    end
  in
  let result =
    {
      setup_s = stream_s +. create_s;
      stream_s;
      create_s;
      host_s;
      words_per_op = words /. fi n;
      recover_s;
      modelled;
      counters = sat_counters @ run_counters @ recover_counters;
      submit_ns = Array.of_list (List.map (fun s -> s *. 1e9) (spans "service.submit"));
      drain_ns_per_op;
      rebuild_ms = fi rebuild_ns /. 1e6;
      tally;
    }
  in
  if traced then Span.add_group (Printf.sprintf "op_drain.%d" root) drain_of;
  result

(* ---------- crash sweep ---------- *)

(* Serial Crashmc.explore of one target with the default persist
   policies and a fixed budget; SpecSPMT-btree at the CI geometry. *)
let crash_budget = 250

let explore ~seed scheme =
  let cells, txs, max_writes =
    if scheme = "SpecSPMT-btree" then (Some 24, Some 12, Some 6) else (None, None, None)
  in
  let id = Span.start ("crashmc.explore:" ^ scheme) in
  let t0 = Span.now () in
  let r = Crashmc.explore ?cells ?txs ?max_writes ~budget:crash_budget ~scheme ~seed () in
  let s = Span.now () -. t0 in
  Span.stop id;
  check ("crashmc " ^ scheme) ~n:r.Crashmc.cases ~bad:(List.length r.Crashmc.failures);
  (scheme, r, s)

let cases_per_s sweep =
  let cases = List.fold_left (fun a (_, r, _) -> a + r.Crashmc.cases) 0 sweep in
  fi cases /. List.fold_left (fun a (_, _, s) -> a +. s) 0.0 sweep

(* Metric names allow letters, digits, '_', '.' and '-'. *)
let metric_name s =
  String.map (fun c -> match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> c | _ -> '_') s

(* ---------- data plane (traced runs) ---------- *)

(* YCSB-F over 16,384 keys through Dataplane: 4 shards on 1 worker
   domain, the router on this domain — 2 domains in all. *)
let dataplane_f ~seed =
  let keys = 16_384 and ops = 40_000 in
  let stream = Scenario.op_stream (Scenario.spec Scenario.F) ~ops ~keys ~seed in
  let model = Oracle.create ~shards ~keys in
  let expected = Oracle.run model stream in
  let pm = Pmem.create ~seed Pmem_config.default in
  let heap = Heap.create pm in
  let cfg =
    { Dataplane.shards; domains = 1; batch_max; depth; keys;
      log_region_bytes = Dataplane.default_log_region_bytes }
  in
  let dp = Dataplane.create heap cfg in
  let got = Array.make ops min_int in
  let id = Span.start "dataplane.run" in
  let r = Dataplane.run ~on_ack:(fun ~idx ~value -> got.(idx) <- value) dp stream in
  Span.stop id;
  check "dataplane-f completions" ~n:ops ~bad:(Oracle.completion_failures ~expected ~got);
  check "dataplane-f table" ~n:keys
    ~bad:(Oracle.table_failures model ~value:(Dataplane.peek dp) ~populated:None);
  let per_op x = x /. fi r.Dataplane.total_ops in
  [
    ("dataplane.router_stalls_per_op", "count", per_op (fi r.Dataplane.router_stalls));
    ("dataplane.sim_ns_max", "ns", r.Dataplane.sim_ns_max);
    ("dataplane.sim_ns_sum", "ns", r.Dataplane.sim_ns_sum);
    ("dataplane.sim_kops", "kops/s", fi r.Dataplane.total_ops /. (r.Dataplane.sim_ns_max /. 1e9) /. 1e3);
    ("dataplane.host_kops", "kops/s", r.Dataplane.wall_ops_per_sec /. 1e3);
    ("span.dataplane.run_s", "s", Span.duration id);
  ]

(* ---------- the run ---------- *)

let percentile a q =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else a.(min (n - 1) (int_of_float (q *. fi n)))

let value rows k = match List.find_opt (fun (k', _, _) -> k' = k) rows with
  | Some (_, _, v) -> v
  | None -> invalid_arg ("perfbench: no metric " ^ k)

(* The fixed work of a traced run, done once after its first rep: the
   layer ledger at this workload's shapes (the tree rows at the first
   rep's populated-tree size) and the data-plane pass. *)
let layer_rows w ~seed ~first =
  let adopt = w.keys / shards in
  let counters = first.counters in
  let ledger =
    Ledger.pmem ~cells:w.keys
    @ [
        ("write_set.tx_ns", "ns", Ledger.write_set_tx ~adopt);
        ("write_set.tx_ns.fresh", "ns", Ledger.write_set_tx ~adopt:0);
        ("write_set.tx_ns.adopt4096", "ns", Ledger.write_set_tx ~adopt:4096);
        ("write_set.tx_ns.adopt16384", "ns", Ledger.write_set_tx ~adopt:16384);
        ("checksum.word_ns", "ns", Ledger.checksum_word ());
      ]
    @ Ledger.log_arena () @ Ledger.ctx ~adopt
    @ Ledger.tree ~size:(int_of_float (value counters "oindex.populated_keys") / shards)
    @ [
        ("admission.cycle_ns", "ns", Ledger.admission ~depth);
        ("spsc.pushpop_ns", "ns", Ledger.spsc ());
      ]
  in
  Span.set_enabled true;
  let dp = dataplane_f ~seed in
  Span.set_enabled false;
  (ledger, dp)

(* Per-layer rows of a traced run: counters of the first rep, the layer
   ledger and its reconciliation, span statistics of the traced reps,
   the data plane and the crash sweep. *)
let per_layer w ~first ~plain ~traced_reps ~sweep ~ledger ~dp =
  let med f l = median (Array.of_list (List.map f l)) in
  let kops r = fi w.sat_ops /. r.host_s /. 1e3 in
  let host_kops = med kops plain and traced_kops = med kops traced_reps in
  let counters = first.counters in
  let l = value ledger in
  (* calls per op x ns per call, against the measured host ns per
     saturation-pass op: each op is one transaction (reads and scans
     read-only), scans also walk the tree, each batch is sealed once and
     each op takes one admission cycle *)
  let t = first.tally in
  let per x = fi x /. fi w.sat_ops in
  let sum_ns =
    (per (t.Scenario.t_reads + t.Scenario.t_scans) *. l "ctx.ro_tx_ns")
    +. (per (t.Scenario.t_writes + t.Scenario.t_rmws) *. l "ctx.w1_tx_ns")
    +. (per t.Scenario.t_scans *. l "pbtree.scan_ns")
    +. (value counters "group_commit.batches_per_op" *. l "log_arena.seal8_ns")
    +. l "admission.cycle_ns"
  in
  let measured_ns = 1e6 /. host_kops in
  let gap = (measured_ns -. sum_ns) /. measured_ns *. 100.0 in
  if Float.abs gap > 15.0 then
    Printf.eprintf "perfbench: ledger gap %.1f%% exceeds 15%% (flagged, not failed)\n%!" gap;
  let all f = Array.concat (List.map f traced_reps) in
  let submit = all (fun r -> r.submit_ns) and drain = all (fun r -> r.drain_ns_per_op) in
  counters
  @ ledger
  @ [
      ("span.service.submit_ns_per_op.p50", "ns", percentile submit 0.5);
      ("span.service.submit_ns_per_op.p99", "ns", percentile submit 0.99);
      ("span.service.drain_ns_per_op.p50", "ns", percentile drain 0.5);
      ("span.service.drain_ns_per_op.p99", "ns", percentile drain 0.99);
      ("span.service.create_s", "s", med (fun r -> r.create_s) traced_reps);
      ("span.service.recover_s", "s", med (fun r -> r.recover_s) traced_reps);
      ("span.scenario.op_stream_s", "s", med (fun r -> r.stream_s) traced_reps);
      ("shadow.rebuild_ms", "ms", med (fun r -> r.rebuild_ms) traced_reps);
      ("host_kops", "kops/s", host_kops);
      ("recover_s", "s", med (fun r -> r.recover_s) plain);
      ("crashmc_cases_per_s", "cases/s", cases_per_s sweep);
      ("trace.host_kops", "kops/s", traced_kops);
      ("trace.overhead_kops", "kops/s", traced_kops -. host_kops);
      ("ledger.measured_ns_per_op", "ns", measured_ns);
      ("ledger.sum_ns_per_op", "ns", sum_ns);
      ("ledger.gap_pct", "%", gap);
    ]
  @ dp
  @ List.concat_map
      (fun (scheme, r, s) ->
        let k = "crashmc." ^ metric_name scheme in
        [
          (k ^ ".cases_per_s", "cases/s", fi r.Crashmc.cases /. s);
          (k ^ ".events", "count", fi r.Crashmc.total_events);
        ])
      sweep

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME ycsb-a-64k | ycsb-e-16k");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S how long to repeat the service workload");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "perfbench: unknown workload %S\n" !workload;
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace takes 0 or 1";
    exit 2
  end;
  let traced = !trace = 1 and seed = !seed in
  let deadline = Span.now () +. fi !seconds in
  (* the model runs once, outside every timed region *)
  let stream =
    Scenario.op_stream (Scenario.spec w.mix) ~ops:(w.sat_ops + w.paced_ops) ~keys:w.keys ~seed
  in
  let final = Oracle.create ~shards ~keys:w.keys in
  let expected = Oracle.run final stream in
  Span.set_enabled traced;
  let sweep = List.map (explore ~seed) (Crashmc.target_names ()) in
  Printf.eprintf "perfbench: crash sweep %.0f cases/s\n%!" (cases_per_s sweep);
  (* A full major collection before each set-up starts it from the same
     heap state, untimed. *)
  let setups =
    if traced then []
    else
      List.init setup_trials (fun _ ->
          Gc.full_major ();
          Span.set_enabled false;
          let _, _, _, _, stream_s, create_s = setup w ~seed ~root:(-1) in
          stream_s +. create_s)
  in
  (* Repeat while the next rep is expected to end before the deadline,
     at least 2 reps; a traced run alternates untraced and traced reps
     and does its fixed work after the first, inside the same deadline. *)
  let reps = ref [] and i = ref 0 and longest = ref 0.0 and layers = ref None in
  while !i < 2 || Span.now () +. !longest < deadline do
    let tr = traced && !i mod 2 = 1 in
    let r0 = Span.now () in
    Gc.full_major ();
    let r = rep w ~seed ~expected ~final ~traced:tr in
    longest := Float.max !longest (Span.now () -. r0);
    Printf.eprintf
      "perfbench: rep %d%s: setup %.3fs, saturation %.3fs (%.2f kops/s, %.2f words/op), recover %.3fs\n%!"
      !i (if tr then " (traced)" else "") r.setup_s r.host_s
      (fi w.sat_ops /. r.host_s /. 1e3) r.words_per_op r.recover_s;
    if traced && !i = 0 then layers := Some (layer_rows w ~seed ~first:r);
    reps := (tr, r) :: !reps;
    incr i
  done;
  Span.set_enabled false;
  let reps = List.rev !reps in
  let plain = List.filter_map (fun (t, r) -> if t then None else Some r) reps in
  let traced_reps = List.filter_map (fun (t, r) -> if t then Some r else None) reps in
  let first = List.hd plain in
  (* modelled and counted metrics must repeat exactly across reps *)
  List.iter
    (fun (_, r) ->
      List.iter2
        (fun (k, _, a) (_, _, b) ->
          check ("repeatability of " ^ k) ~n:1 ~bad:(if a = b then 0 else 1))
        (first.modelled @ first.counters) (r.modelled @ r.counters))
    (List.tl reps);
  let metrics =
    match !layers with
    | Some (ledger, dp) -> per_layer w ~first ~plain ~traced_reps ~sweep ~ledger ~dp
    | None ->
        (* over a fixed number of set-ups, whatever the number of reps *)
        ("setup_s", "s", median (Array.of_list setups))
        (* repetitions differ in words only by one-off runtime growth (a
           table resize), so the steady-state count is the smallest *)
        :: ("host_words_per_op", "words",
            List.fold_left (fun m r -> Float.min m r.words_per_op) infinity plain)
        :: first.modelled
  in
  if traced then begin
    (try Sys.mkdir ".bench_out" 0o755 with Sys_error _ -> ());
    Span.write (Printf.sprintf ".bench_out/spans-%s-seed%d.json" w.name seed)
  end;
  let num v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed
    (String.concat ", "
       (List.map
          (fun (k, u, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (num v) u)
          metrics));
  if !failed > 0 then exit 1
