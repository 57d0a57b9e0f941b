open Specpmt_pmem
open Specpmt_pmalloc
open Specpmt_txn

type t = {
  heap : Heap.t;
  pm : Pmem.t;
  params : Spec_soft.params;
  tsc : Tsc.t;
  backends : Ctx.backend array;
  runtimes : Spec_soft.t array;
  runtime_heaps : Heap.t array option;
      (* partitioned pools: thread [i]'s log blocks come from its own
         carved sub-heap (whose pm is that domain's view of the media) *)
}

let head_slot i = Slots.spec_mt_head i
let max_threads = Slots.spec_mt_max_threads

let create ?(params = Spec_soft.default_params) ?runtime_heaps heap ~threads =
  if threads < 1 || threads > max_threads then
    Fmt.invalid_arg "Spec_mt.create: 1-%d threads" max_threads;
  (match runtime_heaps with
  | Some a when Array.length a <> threads ->
      invalid_arg "Spec_mt.create: runtime_heaps length <> threads"
  | _ -> ());
  let tsc = Tsc.create () in
  let rt_heap i =
    match runtime_heaps with Some a -> a.(i) | None -> heap
  in
  let pairs =
    Array.init threads (fun i ->
        Spec_soft.create ~head_slot:(head_slot i) ~tsc (rt_heap i) params)
  in
  {
    heap;
    pm = Heap.pmem heap;
    params;
    tsc;
    backends = Array.map fst pairs;
    runtimes = Array.map snd pairs;
    runtime_heaps;
  }

let thread t i = t.backends.(i)
let runtime t i = t.runtimes.(i)
let threads t = Array.length t.backends
let tsc t = t.tsc

(* Multi-threaded recovery (Sections 4.1 and 5.2.2).  Per-thread logs are
   independently valid-prefix'd, but only the commit timestamps order
   effects across threads (the shared counter makes them globally
   unique).

   [Replay] materialises every record, sorts globally by timestamp and
   replays oldest first — the paper's algorithm and the differential
   oracle.  [Coalesce] skips the sort entirely: merging the per-thread
   last-writer-wins indexes IS the timestamp merge (a cell's binding
   survives iff no log holds a fresher entry for it), and the merged
   index is then applied with one data write per live cell.  Each log is
   read once: its scan also reattaches its runtime. *)
let recover t =
  let open Specpmt_obs in
  Phase.run Phase.Recover @@ fun () ->
  Heap.recover t.heap;
  (* partitioned pools: each sub-heap rebuilds its own free lists from
     the shared image before the per-thread arenas reattach through it *)
  (match t.runtime_heaps with
  | Some heaps -> Array.iter Heap.recover heaps
  | None -> ());
  let bb = t.params.Spec_soft.block_bytes in
  let scans, indexes, cells_restored, data_writes =
    match t.params.Spec_soft.recovery with
    | Spec_soft.Coalesce ->
        (* one index per thread, kept as its runtime's live index *)
        let indexes = Array.map (fun _ -> Hashtbl.create 256) t.runtimes in
        let scans =
          Array.mapi
            (fun i index ->
              Log_arena.recover_collect t.pm ~head_slot:(head_slot i)
                ~block_bytes:bb ~index)
            indexes
        in
        let index = Hashtbl.create 256 in
        Array.iter (Log_arena.merge_index ~into:index) indexes;
        Log_arena.write_back ~store:(fun (v, _, _) -> v) t.pm index;
        let n = Hashtbl.length index in
        (scans, Array.map Option.some indexes, n, n)
    | Spec_soft.Replay ->
        let records = ref [] in
        let scans =
          Array.mapi
            (fun i _ ->
              Log_arena.recover_scan t.pm ~head_slot:(head_slot i)
                ~block_bytes:bb
                ~f:(fun ~ts es -> records := (ts, es) :: !records))
            t.runtimes
        in
        let ordered = List.sort (fun (a, _) (b, _) -> compare a b) !records in
        let touched = Hashtbl.create 256 in
        List.iter
          (fun (_, es) ->
            Array.iter
              (fun (a, v) ->
                Pmem.store_int t.pm a v;
                Hashtbl.replace touched a ())
              es)
          ordered;
        Log_arena.write_back t.pm touched;
        let writes =
          List.fold_left (fun n (_, es) -> n + Array.length es) 0 ordered
        in
        (scans, Array.map (fun _ -> None) scans, Hashtbl.length touched, writes)
  in
  let total f = Array.fold_left (fun n s -> n + f s) 0 scans in
  Metrics.add (Metrics.counter "recover.records_scanned")
    (total Log_arena.records_scanned);
  Metrics.add (Metrics.counter "recover.entries_scanned")
    (total Log_arena.entries_scanned);
  Metrics.add (Metrics.counter "recover.data_writes") data_writes;
  Metrics.add (Metrics.counter "recover.cells_restored") cells_restored;
  Metrics.incr (Metrics.counter "recover.cycles");
  Tsc.restart_above t.tsc
    (Array.fold_left (fun m s -> max m (Log_arena.max_ts s)) 0 scans);
  (* reattach every thread's arena from its own scan and index *)
  Array.iteri
    (fun i rt -> Spec_soft.reattach ~scan:scans.(i) ?index:indexes.(i) rt)
    t.runtimes
