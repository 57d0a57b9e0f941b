open Specpmt_pmem
open Specpmt_pmalloc
open Specpmt_backends
module Metrics = Specpmt_obs.Metrics

(* The sharded KV service, driving the per-shard executor inline: a
   router hashing keys to shards, each shard owning one Spec_soft
   runtime (one per-thread log of the multi-threaded pool), a bounded
   admission queue and a Shard executor.  The store itself is a flat
   table of [keys] 8-byte cells in the persistent heap; key [k] lives at
   [base + 8k] and is owned by exactly one shard (shard-of-key hashing),
   so shards never contend on a cell and the per-thread logs stay
   disjoint. *)

type op = Shard.op = Read | Write of int | Rmw of int | Scan of int

type request = {
  client : int;
  key : int;
  op : op;
  enq_ns : float;  (** simulated time at admission *)
}

type completion = {
  c_client : int;
  c_shard : int;
  c_key : int;
  c_op : op;
  value : int;  (** value read, or value written *)
  c_enq_ns : float;
  ack_ns : float;  (** simulated time when the commit fence retired *)
}

type config = {
  shards : int;
  batch_max : int;  (** transactions per group-commit batch *)
  depth : int;  (** per-shard admission (inflight) bound *)
  keys : int;
}

type shard = {
  id : int;
  adm : request Admission.t;
  exe : Shard.t;
  lat : Specpmt_obs.Hist.t;  (** per-op latency, simulated ns *)
  batch : request array;  (** the batch [drain] runs; [batch_max] long *)
  results : int array;  (** its op results *)
}

let no_request = { client = 0; key = 0; op = Read; enq_ns = 0.0 }

type t = {
  pm : Pmem.t;
  heap : Heap.t;
  cfg : config;
  pool : Spec_mt.t;
  addr : Addr.t array;  (* key -> cell *)
  shard_tbl : shard array;
  shadow : bool;  (* DRAM mirrors on the ordered index *)
  mutable oidx : Oindex.t;  (* per-shard ordered index; rebuilt on recover *)
}

let route = Shard.route
let shard_of_key t k = route ~shards:t.cfg.shards k

let create ?params ?(shadow = true) heap cfg =
  if cfg.shards < 1 || cfg.shards > Spec_mt.max_threads then
    Fmt.invalid_arg "Service.create: 1-%d shards" Spec_mt.max_threads;
  if cfg.batch_max < 1 then invalid_arg "Service.create: batch_max < 1";
  if cfg.keys < 1 then invalid_arg "Service.create: keys < 1";
  let pool = Spec_mt.create ?params heap ~threads:cfg.shards in
  let base = Heap.alloc heap (cfg.keys * 8) in
  let addr = Array.init cfg.keys (fun k -> base + (k * 8)) in
  Shard.adopt pool ~addr (Shard.rows ~shards:cfg.shards ~keys:cfg.keys);
  let oidx = Oindex.create ~shadow heap ~pool ~shards:cfg.shards ~keys:cfg.keys in
  {
    pm = Heap.pmem heap;
    heap;
    cfg;
    pool;
    addr;
    shadow;
    oidx;
    shard_tbl =
      Array.init cfg.shards (fun id ->
          {
            id;
            adm = Admission.create ~depth:cfg.depth;
            exe = Shard.create pool ~id ~addr oidx;
            lat = Specpmt_obs.Hist.create ();
            batch = Array.make cfg.batch_max no_request;
            results = Array.make cfg.batch_max 0;
          });
  }

let config t = t.cfg
let pm t = t.pm
let now t = Pmem.now t.pm

let submit t ~client ~key op =
  Shard.validate ~keys:t.cfg.keys key op;
  let s = t.shard_tbl.(shard_of_key t key) in
  let v = Admission.offer s.adm { client; key; op; enq_ns = now t } in
  (match v with
  | Admission.Rejected _ -> (* per-use lookup: metric cells are domain-local *)
      Metrics.incr (Metrics.counter "svc.rejected")
  | Admission.Accepted -> ());
  v

(* Execute the [n] requests popped into [s.batch]: every request becomes
   one transaction (reads abandon their empty record and cost no fence),
   the executor seals them under a single fence, and only then are the
   requests acknowledged — an ack therefore always names a durable op.
   Acks fire per batch, right after its fence: a crash later in the same
   drain must not lose already-durable acks. *)
let exec_batch t s n ~on_ack =
  Shard.batch_begin s.exe;
  for i = 0 to n - 1 do
    let r = s.batch.(i) in
    s.results.(i) <- Shard.exec s.exe ~key:r.key r.op
  done;
  Shard.batch_end s.exe ~n;
  Admission.ack s.adm n;
  let t_ack = now t in
  for i = 0 to n - 1 do
    let r = s.batch.(i) in
    Specpmt_obs.Hist.observe s.lat (int_of_float (t_ack -. r.enq_ns));
    on_ack
      {
        c_client = r.client;
        c_shard = s.id;
        c_key = r.key;
        c_op = r.op;
        value = s.results.(i);
        c_enq_ns = r.enq_ns;
        ack_ns = t_ack;
      }
  done

let drain ?(on_ack = fun (_ : completion) -> ()) t =
  let acked = ref 0 in
  let progress = ref true in
  while !progress do
    progress := false;
    for i = 0 to Array.length t.shard_tbl - 1 do
      let s = t.shard_tbl.(i) in
      let queued = Admission.queued s.adm in
      Metrics.set_gauge (Metrics.gauge "svc.queue_depth") (float_of_int queued);
      let n = min queued t.cfg.batch_max in
      if n > 0 then begin
        progress := true;
        for j = 0 to n - 1 do
          s.batch.(j) <- Admission.pop s.adm
        done;
        exec_batch t s n ~on_ack;
        acked := !acked + n
      end
    done
  done;
  !acked

let recover t =
  Spec_mt.recover t.pool;
  (* rediscover the ordered index from its root slot: fresh tree
     handles off the replayed media, fresh populated bitmap, fresh
     mirrors (a pre-crash mirror is never reused) *)
  t.oidx <-
    Oindex.recover ~shadow:t.shadow ~pool:t.pool t.heap ~shards:t.cfg.shards
      ~keys:t.cfg.keys;
  Array.iter
    (fun s ->
      Admission.clear s.adm;
      Shard.reset s.exe t.oidx)
    t.shard_tbl

let peek t k =
  if k < 0 || k >= t.cfg.keys then invalid_arg "Service.peek: bad key";
  Pmem.peek_volatile_int t.pm t.addr.(k)

let sealing t i = Shard.sealing t.shard_tbl.(i).exe

type shard_stats = {
  s_id : int;
  s_ops : int;
  s_accepted : int;
  s_rejected : int;
  s_acked : int;
  s_max_inflight : int;
  s_batches : int;
  s_sealed : int;
  s_latency : Specpmt_obs.Hist.snapshot;
}

let shard_stats t i =
  let s = t.shard_tbl.(i) in
  {
    s_id = s.id;
    s_ops = Admission.acked s.adm;
    s_accepted = Admission.accepted s.adm;
    s_rejected = Admission.rejected s.adm;
    s_acked = Admission.acked s.adm;
    s_max_inflight = Admission.max_inflight s.adm;
    s_batches = Shard.batches s.exe;
    s_sealed = Shard.sealed_records s.exe;
    s_latency = Specpmt_obs.Hist.snapshot s.lat;
  }

let owned_keys t i =
  if i < 0 || i >= t.cfg.shards then invalid_arg "Service.owned_keys: bad shard";
  (Shard.rows ~shards:t.cfg.shards ~keys:t.cfg.keys).(i)

let oindex t = t.oidx

let rejected t =
  Array.fold_left (fun n s -> n + Admission.rejected s.adm) 0 t.shard_tbl
