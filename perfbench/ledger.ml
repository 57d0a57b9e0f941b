(* The layer ledger: fixed-shape microbenchmarks of each layer's public
   functions, in host ns per call.  Shapes follow the workload that asks
   for them (adoption-transaction size, batch of 8, B-link node order,
   populated-tree size), so the rows can be multiplied by the calls per
   op a workload makes and reconciled against its measured host cost.
   Each row is the median of [reps] timed loops. *)

open Specpmt_pmem
module Pmem_config = Specpmt_pmem.Config
module Heap = Specpmt_pmalloc.Heap
module Ctx = Specpmt_txn.Ctx
module Write_set = Specpmt_txn.Write_set
module Checksum = Specpmt_txn.Checksum
module Log_arena = Specpmt_txn.Log_arena
module Spec_soft = Specpmt_backends.Spec_soft
module Slots = Specpmt_backends.Slots
module Pbtree = Specpmt_pstruct.Pbtree
module Shadow = Specpmt_pstruct.Shadow
module Admission = Specpmt_svc.Admission
module Spsc = Specpmt_svc.Spsc

let reps = 5

(* The Spec_soft parameters every workload runs with: the defaults with
   adaptive reclamation (coalescing recovery, no data persistence). *)
let params = { Spec_soft.default_params with reclaim = Spec_soft.adaptive_policy }

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Median host ns per call of [f i], over [reps] loops of [n] calls. *)
let ns_per_call ~n f =
  median
    (Array.init reps (fun _ ->
         let t0 = Span.now () in
         for i = 0 to n - 1 do
           f i
         done;
         (Span.now () -. t0) *. 1e9 /. float_of_int n))

let fresh_heap () = Heap.create (Pmem.create ~seed:1 Pmem_config.default)

(* Device ops over a table of [cells] 8-byte cells.  clwb and sfence are
   timed as the increments over the store (resp. store + clwb) they
   follow, which is the order the commit path uses; the four loops run
   back to back in every rep and each row is the median of the per-rep
   increments. *)
let pmem ~cells =
  let heap = fresh_heap () in
  let pm = Heap.pmem heap in
  let base = Heap.alloc heap (cells * 8) in
  let addr i = base + (8 * (i mod cells)) in
  let n = 100_000 in
  let time f =
    let t0 = Span.now () in
    for i = 0 to n - 1 do
      f i
    done;
    (Span.now () -. t0) *. 1e9 /. float_of_int n
  in
  let row f = median (Array.init reps f) in
  let samples =
    Array.init reps (fun _ ->
        let load = time (fun i -> ignore (Pmem.load_int pm (addr i))) in
        let store = time (fun i -> Pmem.store_int pm (addr i) i) in
        let clwb =
          time (fun i ->
              Pmem.store_int pm (addr i) i;
              Pmem.clwb pm (addr i))
        in
        let fence =
          time (fun i ->
              Pmem.store_int pm (addr i) i;
              Pmem.clwb pm (addr i);
              Pmem.sfence pm)
        in
        (load, store, clwb -. store, fence -. clwb))
  in
  [
    ("pmem.store_ns", "ns", row (fun r -> let _, s, _, _ = samples.(r) in s));
    ("pmem.load_ns", "ns", row (fun r -> let l, _, _, _ = samples.(r) in l));
    ("pmem.clwb_ns", "ns", row (fun r -> let _, _, c, _ = samples.(r) in c));
    ("pmem.sfence_ns", "ns", row (fun r -> let _, _, _, f = samples.(r) in f));
  ]

(* One 1-cell record + clear on a write set that once held an
   [adopt]-cell transaction (0 = a fresh set). *)
let write_set_tx ~adopt =
  let ws = Write_set.create () in
  for i = 0 to adopt - 1 do
    ignore (Write_set.record ws (8 * i) ~old_value:0)
  done;
  Write_set.clear ws;
  let n = if adopt > 4096 then 1_000 else if adopt > 0 then 4_000 else 20_000 in
  ns_per_call ~n (fun i ->
      ignore (Write_set.record ws (8 * (i land 1023)) ~old_value:0);
      Write_set.clear ws)

let checksum_word () =
  let acc = ref 0 in
  let r = ns_per_call ~n:1_000_000 (fun i -> acc := Checksum.crc32c_word !acc i) in
  ignore (Sys.opaque_identity !acc);
  r

(* Tentative (group-commit) append of a 1-entry record, and the seal of
   a batch of 8 such records. *)
let log_arena () =
  let heap = fresh_heap () in
  let log = Log_arena.create heap ~head_slot:Slots.spec_head ~block_bytes:4096 in
  let ts = ref 0 in
  let append i =
    Log_arena.begin_record log;
    ignore (Log_arena.add_entry log ~target:(8 * (i land 1023)) ~value:i);
    incr ts;
    Log_arena.commit_record ~tentative:true log ~timestamp:!ts
  in
  let batches = 512 in
  let append_s = Array.make reps 0.0 and seal_s = Array.make reps 0.0 in
  for r = 0 to reps - 1 do
    for b = 0 to batches - 1 do
      let t0 = Span.now () in
      for i = 0 to 7 do
        append ((8 * b) + i)
      done;
      let t1 = Span.now () in
      ignore (Log_arena.seal_tentative log);
      let t2 = Span.now () in
      append_s.(r) <- append_s.(r) +. (t1 -. t0);
      seal_s.(r) <- seal_s.(r) +. (t2 -. t1)
    done;
    Log_arena.reset log
  done;
  let per n s = median (Array.map (fun x -> x *. 1e9 /. float_of_int n) s) in
  [
    ("log_arena.append_ns", "ns", per (8 * batches) append_s);
    ("log_arena.seal8_ns", "ns", per batches seal_s);
  ]

(* Bare run_tx on a Spec_soft backend with the workloads' [params], after one
   adoption-sized transaction of [adopt] cells, as each service shard
   runs at creation. *)
let ctx ~adopt =
  let heap = fresh_heap () in
  let backend, _ = Spec_soft.create heap params in
  let base = Heap.alloc heap (adopt * 8) in
  backend.Ctx.run_tx (fun c ->
      for i = 0 to adopt - 1 do
        c.Ctx.write (base + (8 * i)) 0
      done);
  let addr i = base + (8 * (i * 7919 mod adopt)) in
  let n = if adopt > 4096 then 1_000 else 3_000 in
  let ro = ns_per_call ~n (fun i -> ignore (backend.Ctx.run_tx (fun c -> c.Ctx.read (addr i)))) in
  let w1 = ns_per_call ~n (fun i -> backend.Ctx.run_tx (fun c -> c.Ctx.write (addr i) i)) in
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    backend.Ctx.run_tx (fun c -> c.Ctx.write (addr i) i)
  done;
  [
    ("ctx.ro_tx_ns", "ns", ro);
    ("ctx.w1_tx_ns", "ns", w1);
    ("ctx.tx_words", "words", (Gc.minor_words () -. w0) /. float_of_int n);
  ]

(* A mirrored order-8 B-link tree of [size] keys (the populated-tree
   size of one shard), mapping keys to table cells: in-node binary
   search, and inside a read-only transaction a point lookup, a 16-key
   scan and a scan of uniform length 1..16 (YCSB-E's), each reading the
   cells it visits as Oindex.scan does. *)
let tree ~size =
  let size = max size 1 in
  let heap = fresh_heap () in
  let pm = Heap.pmem heap in
  let backend, _ = Spec_soft.create heap params in
  let cells = Heap.alloc heap (size * 8) in
  let t = backend.Ctx.run_tx (fun c -> Pbtree.create ~order:8 c ()) in
  let key i = 4 * i in
  let chunk = 64 in
  for b = 0 to (size - 1) / chunk do
    backend.Ctx.run_tx (fun c ->
        for i = b * chunk to min size ((b + 1) * chunk) - 1 do
          Pbtree.insert c t (key i) (cells + (8 * i))
        done)
  done;
  Pbtree.attach_shadow (Ctx.peek_ctx pm) t;
  let tx f i = backend.Ctx.run_tx (fun c -> f c i) in
  let probe i = key (i * 7919 mod size) in
  let node_keys = Array.init 8 (fun i -> 4 * i) in
  let lb =
    ns_per_call ~n:1_000_000 (fun i ->
        ignore (Sys.opaque_identity (Shadow.lower_bound node_keys 8 (i land 31))))
  in
  let find = ns_per_call ~n:20_000 (tx (fun c i -> ignore (Pbtree.find c t (probe i)))) in
  let scan len c i =
    let acc = ref 0 and left = ref len in
    Pbtree.iter_from c t ~lo:(probe i) (fun k a ->
        acc := ((!acc * 31) + k + c.Ctx.read a) land max_int;
        decr left;
        !left > 0);
    ignore (Sys.opaque_identity !acc)
  in
  [
    ("shadow.lower_bound_ns", "ns", lb);
    ("pbtree.find_ns", "ns", find);
    ("pbtree.scan16_ns", "ns", ns_per_call ~n:10_000 (tx (scan 16)));
    ("pbtree.scan_ns", "ns", ns_per_call ~n:10_000 (tx (fun c i -> scan (1 + (i land 15)) c i)));
  ]

(* One op's share of an admission cycle: a batch of 8 offers, one
   take_up_to 8 and one ack of 8, divided by 8. *)
let admission ~depth =
  let a = Admission.create ~depth in
  ns_per_call ~n:50_000 (fun i ->
      for j = 0 to 7 do
        ignore (Admission.offer a (i + j))
      done;
      ignore (Admission.take_up_to a 8);
      Admission.ack a 8)
  /. 8.0

(* Cross-domain hand-off through one ring: a consumer domain pops what
   this domain pushes; host ns per item, spinning on full and empty as
   the data plane's router and workers do. *)
let spsc () =
  let n = 100_000 in
  let samples =
    Array.init 3 (fun _ ->
        let q = Spsc.create ~dummy:0 ~capacity:1024 in
        let consumer =
          Domain.spawn (fun () ->
              let got = ref 0 in
              while !got < n do
                match Spsc.try_pop q with
                | Some _ -> incr got
                | None -> Domain.cpu_relax ()
              done)
        in
        let t0 = Span.now () in
        for i = 1 to n do
          while not (Spsc.try_push q i) do
            Domain.cpu_relax ()
          done
        done;
        Domain.join consumer;
        (Span.now () -. t0) *. 1e9 /. float_of_int n)
  in
  median samples
