open Specpmt_pmem
open Specpmt_pmalloc
open Specpmt_txn

type reclaim_policy =
  | Threshold of int
  | Adaptive of {
      min_log_bytes : int;
      stale_trigger : float;
      bg_duty : float;
    }

type recovery_mode = Coalesce | Replay

type params = {
  data_persist : bool;
  block_bytes : int;
  reclaim : reclaim_policy;
  recovery : recovery_mode;
}

let default_params =
  {
    data_persist = false;
    block_bytes = 4096;
    reclaim = Threshold (1 lsl 20);
    recovery = Coalesce;
  }

let dp_params = { default_params with data_persist = true }

let adaptive_policy =
  Adaptive
    { min_log_bytes = 64 * 1024; stale_trigger = 0.5; bg_duty = 0.05 }

(* One live (freshest) logged entry per datum, mirrored in DRAM as a
   [Log_arena.cell]: the value, the commit timestamp of the record holding
   it, and the log block the entry lives in.  The index is what turns
   reclamation from O(log) into O(live): the compactor rewrites straight
   from its cells, never scanning the chain, and per-block live counts
   tell the scheduler where the stale bytes are. *)
type vcell = Log_arena.cell

(* The reclamation scheduler's chain walk ({!choose_boundary}): running
   sums, and the newest qualifying boundary with the blocks before it and
   their live cells ([bnd = -1]: none qualifies). *)
type walk = {
  mutable entries : int;
  mutable live : int;
  mutable blocks : int;
  mutable bnd : Addr.t;
  mutable bnd_blocks : int;
  mutable bnd_live : int;
}

type t = {
  heap : Heap.t;
  pm : Pmem.t;
  params : params;
  head_slot : int;
  tsc : Tsc.t;
  ws : Write_set.t;
  mutable arena : Log_arena.t;
  driver : Ctx.Driver.t;
  mutable in_batch : bool;
      (* group commit open: transactions commit tentative (poisoned
         checksum, no fence) records until [batch_end] seals the whole
         batch under a single fence *)
  mutable reclaims : int;
  mutable last_compact_footprint : int;
      (* growth-based trigger: reclaiming again before the log has grown
         past twice the last compacted size would make reclamation cost
         quadratic when the live set itself exceeds the threshold *)
  vindex : (Addr.t, vcell) Hashtbl.t;
  block_live : (Addr.t, int) Hashtbl.t;
  (* reclamation state, reused by every cycle: the walk and its visitor
     (built once at [create]), the live set a cycle evacuates, and the
     cycle (its [reclaims] count) that last stamped each block as part
     of an evacuated prefix *)
  walk : walk;
  mutable walk_step : Addr.t -> unit;
  evac : Log_arena.live;
  prefix_stamp : (Addr.t, int) Hashtbl.t;
  mutable bg_spent : float;
      (* background-core ns this runtime has consumed, against the
         adaptive policy's duty-cycle budget *)
}

let params t = t.params
let pmem t = t.pm
let live_cells t = Hashtbl.length t.vindex
let stale_entries t = Log_arena.total_entries t.arena - live_cells t

(* commit-path counter bump: exception form instead of [find_opt] so no
   option is boxed per write-set cell *)
let live_in_block t b =
  match Hashtbl.find t.block_live b with n -> n | exception Not_found -> 0

let bump_live t b d =
  if b >= 0 then Hashtbl.replace t.block_live b (live_in_block t b + d)

(* Merge the committed (or rolled-back-and-committed) write set into the
   volatile index at the record's timestamp.  [last_value]/[entry_block]
   were captured on the write path, so this is pure DRAM bookkeeping — no
   device traffic.  A [for] loop, not [iter_in_order]: no closure per
   commit. *)
let index_commit t ts =
  for i = 0 to Write_set.size t.ws - 1 do
    let a = Write_set.nth_addr t.ws i and slot = Write_set.nth_slot t.ws i in
    (match Hashtbl.find t.vindex a with
    | c ->
        bump_live t c.block (-1);
        c.value <- slot.Write_set.last_value;
        c.ts <- ts;
        c.block <- slot.Write_set.entry_block
    | exception Not_found ->
        Hashtbl.replace t.vindex a
          (Log_arena.cell ~target:a ~value:slot.Write_set.last_value ~ts
             ~block:slot.Write_set.entry_block));
    bump_live t slot.Write_set.entry_block 1
  done

(* Rebuild the volatile index from the log itself (attach/recover paths).
   When the caller already holds a coalesced recovery index it is reused;
   otherwise an unmetered scan derives it — the rebuild belongs to the
   background core, exactly like the reclamation scans it replaces. *)
let rebuild_vindex ?from t =
  Hashtbl.reset t.vindex;
  Hashtbl.reset t.block_live;
  let idx =
    match from with
    | Some idx -> idx
    | None ->
        let idx = Hashtbl.create 256 in
        Pmem.with_unmetered t.pm (fun () ->
            ignore
              (Log_arena.recover_collect t.pm ~head_slot:t.head_slot
                 ~block_bytes:t.params.block_bytes ~index:idx));
        idx
  in
  Hashtbl.iter
    (fun a (value, ts, block) ->
      Hashtbl.replace t.vindex a (Log_arena.cell ~target:a ~value ~ts ~block);
      bump_live t block 1)
    idx

(* ---------- Reclamation ---------- *)

(* Background reclamation (Section 4.2): runs on a dedicated core in the
   paper, so its memory operations are unmetered here and an estimated
   cost is charged to the background ledger instead. *)

let charge_bg t ns =
  t.bg_spent <- t.bg_spent +. ns;
  Pmem.charge_bg_ns t.pm ns;
  Specpmt_obs.Metrics.add
    (Specpmt_obs.Metrics.counter "reclaim.bg_ns")
    (int_of_float ns)

(* Legacy scan-based compaction: O(log) scan + O(live) copy.  Kept as the
   reference path (Threshold policy, {!reclaim_now}) and as the
   differential oracle for the indexed compactor. *)
let reclaim t =
  let open Specpmt_obs in
  Phase.run Phase.Reclaim @@ fun () ->
  let stats =
    Pmem.with_unmetered t.pm (fun () -> Log_arena.compact t.arena)
  in
  t.reclaims <- t.reclaims + 1;
  let scan_ns = float_of_int stats.Log_arena.entries_scanned *. 6.0 in
  let copy_ns = float_of_int stats.Log_arena.entries_live *. 30.0 in
  charge_bg t (scan_ns +. copy_ns);
  (* compaction moved every surviving entry; the volatile index must
     follow it (cheapest as a rebuild — the survivor set IS the index) *)
  rebuild_vindex t;
  Metrics.incr (Metrics.counter "reclaim.cycles");
  Metrics.add (Metrics.counter "reclaim.blocks_freed")
    stats.Log_arena.blocks_freed;
  Metrics.add (Metrics.counter "reclaim.entries_scanned")
    stats.Log_arena.entries_scanned;
  Metrics.add (Metrics.counter "reclaim.entries_live")
    stats.Log_arena.entries_live;
  Hist.observe
    (Metrics.histogram "reclaim.entries_scanned_per_cycle")
    stats.Log_arena.entries_scanned;
  Trace.emit "spec.reclaim" ~a:stats.Log_arena.blocks_freed
    ~b:stats.Log_arena.entries_live;
  stats

let reclaim_now t = reclaim t
let reclaim_count t = t.reclaims

(* Victim selection for the indexed compactor: walk the chain oldest
   first — staleness concentrates there, so the oldest blocks are visited
   first — and remember the newest clean-start boundary whose prefix is
   still stale enough to be worth evacuating.  Everything before the
   boundary is rewritten from the index; the hot tail (including the
   append block) is never touched.  It runs on every batch end while
   reclamation is deferred, so it allocates nothing: the visitor is built
   once and the sums and the result live in [t.walk]. *)
let walk_step t b =
  let w = t.walk and arena = t.arena in
  let stale_trigger =
    match t.params.reclaim with
    | Adaptive { stale_trigger; _ } -> stale_trigger
    | Threshold _ -> infinity
  in
  if
    w.blocks > 0 && w.entries > 0
    && Log_arena.is_clean_start arena b
    && float_of_int (w.entries - w.live) /. float_of_int w.entries
       >= stale_trigger
  then begin
    w.bnd <- b;
    w.bnd_blocks <- w.blocks;
    w.bnd_live <- w.live
  end;
  w.entries <- w.entries + Log_arena.entries_in_block arena b;
  w.live <- w.live + live_in_block t b;
  w.blocks <- w.blocks + 1

let choose_boundary t =
  let w = t.walk in
  w.entries <- 0;
  w.live <- 0;
  w.blocks <- 0;
  w.bnd <- -1;
  Log_arena.iter_chain t.arena t.walk_step

(* [f] on the [n] oldest blocks of the chain *)
let iter_oldest t n f =
  let left = ref n in
  Log_arena.iter_chain t.arena (fun b ->
      if !left > 0 then begin
        decr left;
        f b
      end)

(* Indexed reclamation of the prefix [choose_boundary] picked (the whole
   chain when none qualified).  One sweep of the index pushes every cell
   living in that prefix onto the reused live set, and
   {!Log_arena.compact_indexed} sorts the set in place and rewrites it.
   The output order is pinned, not merely timestamp-ascending: records
   ascend by timestamp, and a record's entries come in the reverse of the
   sweep's order.  It decides which cells share a replacement block, and
   so the per-block live counts every later victim choice reads — the
   compaction schedule, and where a crash falls between compactions,
   follow from it. *)
let reclaim_indexed t =
  let open Specpmt_obs in
  Phase.run Phase.Reclaim @@ fun () ->
  let w = t.walk in
  let whole = w.bnd < 0 in
  let keep_from = if whole then None else Some w.bnd in
  let blocks_visited =
    if whole then Log_arena.block_count t.arena else w.bnd_blocks
  in
  (* stamp the prefix; every live cell in it moves out, and the blocks
     themselves are dropped, so their live counts go now *)
  let stamp = t.reclaims + 1 in
  iter_oldest t blocks_visited (fun b ->
      Hashtbl.replace t.prefix_stamp b stamp;
      Hashtbl.remove t.block_live b);
  Hashtbl.iter
    (fun _ (c : vcell) ->
      if
        whole
        ||
        match Hashtbl.find t.prefix_stamp c.block with
        | s -> s = stamp
        | exception Not_found -> false
      then Log_arena.live_push t.evac c)
    t.vindex;
  let stats =
    Pmem.with_unmetered t.pm (fun () ->
        Log_arena.compact_indexed ?keep_from t.arena ~live:t.evac)
  in
  t.reclaims <- stamp;
  (* no scan term: the index replaced it — that is the O(live) win *)
  charge_bg t (float_of_int stats.Log_arena.entries_live *. 30.0);
  (* the replacement blocks, now the oldest of the chain, hold moved
     cells only: each one's live count is its entry count *)
  iter_oldest t stats.Log_arena.blocks_allocated (fun b ->
      Hashtbl.replace t.block_live b (Log_arena.entries_in_block t.arena b));
  Metrics.incr (Metrics.counter "reclaim.cycles");
  Metrics.incr (Metrics.counter "reclaim.indexed_cycles");
  Metrics.add (Metrics.counter "reclaim.blocks_visited") blocks_visited;
  Metrics.add (Metrics.counter "reclaim.blocks_freed")
    stats.Log_arena.blocks_freed;
  Metrics.add (Metrics.counter "reclaim.entries_live")
    stats.Log_arena.entries_live;
  Trace.emit "spec.reclaim_indexed" ~a:stats.Log_arena.blocks_freed
    ~b:stats.Log_arena.entries_live;
  stats

(* The pressure model (evaluated after every commit, O(1) except for the
   boundary walk, which is O(blocks)): compact when the log is big enough
   to matter, stale enough to pay off, and the background core has budget
   for the copy.  All three inputs come from the volatile index. *)
let maybe_reclaim t =
  let open Specpmt_obs in
  let foot = Log_arena.footprint t.arena in
  match t.params.reclaim with
  | Threshold threshold ->
      if foot > threshold && foot > 2 * t.last_compact_footprint then begin
        ignore (reclaim t);
        t.last_compact_footprint <- Log_arena.footprint t.arena
      end
  | Adaptive { min_log_bytes; stale_trigger; bg_duty } ->
      let total = Log_arena.total_entries t.arena in
      let stale = total - live_cells t in
      let stale_frac =
        if total = 0 then 0.0
        else float_of_int stale /. float_of_int total
      in
      Metrics.set_gauge (Metrics.gauge "reclaim.stale_frac") stale_frac;
      Metrics.set_gauge
        (Metrics.gauge "reclaim.live_cells")
        (float_of_int (live_cells t));
      if foot >= min_log_bytes && stale_frac >= stale_trigger then begin
        choose_boundary t;
        let to_copy =
          if t.walk.bnd >= 0 then t.walk.bnd_live else live_cells t
        in
        let est_ns = float_of_int to_copy *. 30.0 in
        let allowed = bg_duty *. Pmem.now t.pm in
        if t.bg_spent +. est_ns > allowed then
          (* the background core is over its duty cycle: defer, the
             pressure check will fire again on a later commit *)
          Metrics.incr (Metrics.counter "reclaim.deferred_bg_budget")
        else begin
          ignore (reclaim_indexed t);
          t.last_compact_footprint <- Log_arena.footprint t.arena
        end
      end

(* ---------- Transactions ---------- *)

let tx_write t a v =
  let slot = Write_set.record t.ws a ~old_value:(Pmem.load_int t.pm a) in
  if Write_set.fresh t.ws then begin
    slot.Write_set.entry_pos <-
      Log_arena.add_entry t.arena ~target:a ~value:v;
    slot.Write_set.entry_block <- Log_arena.current_block t.arena
  end
  else Log_arena.set_entry_value t.arena slot.Write_set.entry_pos v;
  slot.Write_set.last_value <- v;
  Pmem.store_int t.pm a v

let commit t =
  (* a read-only transaction has nothing to persist and must not emit a
     zero-entry record (it would read as the end-of-log sentinel) *)
  if Log_arena.entry_words t.arena = 0 then Log_arena.abandon_record t.arena
  else begin
    let ts = Tsc.next t.tsc in
    Log_arena.commit_record t.arena ~tentative:t.in_batch ~timestamp:ts;
    index_commit t ts
  end;
  if t.params.data_persist then begin
    (* SpecSPMT-DP: also force the in-place updates into the persistence
       domain before returning (what vanilla SpecPMT deliberately skips) *)
    Write_set.iter_in_order t.ws (fun a _ -> Pmem.clwb t.pm a);
    Pmem.sfence t.pm
  end;
  Write_set.clear t.ws

(* Abort: restore the in-place (still volatile) updates from the write
   set, freshen the log entries to the restored values, and commit the
   record — the log then describes exactly the post-rollback state, which
   keeps the "every datum has a fresh committed record" invariant. *)
let rollback t =
  Write_set.iter_newest_first t.ws (fun a slot ->
      Pmem.store_int t.pm a slot.Write_set.old_value;
      slot.Write_set.last_value <- slot.Write_set.old_value;
      Log_arena.set_entry_value t.arena slot.Write_set.entry_pos
        slot.Write_set.old_value);
  if Log_arena.entry_words t.arena = 0 then Log_arena.abandon_record t.arena
  else begin
    let ts = Tsc.next t.tsc in
    Log_arena.commit_record t.arena ~tentative:t.in_batch ~timestamp:ts;
    index_commit t ts
  end;
  Write_set.clear t.ws

(* ---------- Group commit ---------- *)

(* Between [batch_begin] and [batch_end] every transaction commits a
   tentative record: checksum deliberately poisoned, no flush, no fence.
   [batch_end] patches the true checksums and persists the entire batch
   with one flush run and a single fence — K transactions share the one
   ordering point SpecPMT has left, so the per-transaction fence cost
   tends to 1/K.  A crash before the seal makes the whole batch invisible
   (the valid-prefix scan stops at the first poisoned checksum); a crash
   inside the seal durably commits a prefix of the batch in order. *)

let in_batch t = t.in_batch

let batch_begin t =
  if Ctx.Driver.in_tx t.driver then
    invalid_arg "Spec_soft.batch_begin: open transaction";
  if t.in_batch then invalid_arg "Spec_soft.batch_begin: batch already open";
  if t.params.data_persist then
    invalid_arg
      "Spec_soft.batch_begin: data-persist mode fences per transaction";
  t.in_batch <- true

let batch_end t =
  if not t.in_batch then invalid_arg "Spec_soft.batch_end: no open batch";
  if Ctx.Driver.in_tx t.driver then
    invalid_arg "Spec_soft.batch_end: open transaction";
  t.in_batch <- false;
  let sealed = Log_arena.seal_tentative t.arena in
  (* reclamation was deferred while records were unsealed *)
  maybe_reclaim t;
  sealed

(* ---------- Recovery ---------- *)

(* Recovery (Section 3.1).  Both modes first establish the valid record
   prefix (the torn record of an interrupted transaction fails its
   checksum and ends the scan); they differ in how the surviving entries
   reach the data cells.

   [Replay] is the paper's replay-every-record loop, oldest first: every
   entry is stored, stale ones are overwritten by fresher ones — O(log)
   data writes.  [Coalesce] folds the same scan into a last-writer-wins
   index and then writes each live cell exactly once — O(live) data
   writes.  Replay is kept as the differential-testing oracle for the
   coalescing path. *)
let replay_internal ?(head_slot = Slots.spec_head) ?(mode = Coalesce) pm
    ~block_bytes =
  let open Specpmt_obs in
  let restored = Hashtbl.create 256 in
  let scan, index, data_writes =
    match mode with
    | Coalesce ->
        let index = Hashtbl.create 256 in
        let scan = Log_arena.recover_collect pm ~head_slot ~block_bytes ~index in
        Hashtbl.iter (fun a (v, _, _) -> Hashtbl.replace restored a v) index;
        Log_arena.write_back ~store:Fun.id pm restored;
        (scan, Some index, Hashtbl.length index)
    | Replay ->
        let scan =
          Log_arena.recover_scan pm ~head_slot ~block_bytes
            ~f:(fun ~ts:_ es ->
              Array.iter
                (fun (a, v) ->
                  Pmem.store_int pm a v;
                  Hashtbl.replace restored a v)
                es)
        in
        Log_arena.write_back pm restored;
        (scan, None, Log_arena.entries_scanned scan)
  in
  let count name n = Metrics.add (Metrics.counter name) n in
  count "recover.records_scanned" (Log_arena.records_scanned scan);
  count "recover.entries_scanned" (Log_arena.entries_scanned scan);
  count "recover.data_writes" data_writes;
  (restored, scan, index)

let recover_standalone ?(mode = Coalesce) pm ~block_bytes =
  let restored, _, _ = replay_internal ~mode pm ~block_bytes in
  restored

(* Reattach the arena after the data replay, from that replay's own scan
   of this log (and its coalesced index, when it built one) — the
   multi-threaded runtime replays all threads' logs in global timestamp
   order before reattaching each thread (Section 5.2.2). *)
let reattach ~scan ?index t =
  t.arena <-
    Log_arena.attach ~scan t.heap ~head_slot:t.head_slot
      ~block_bytes:t.params.block_bytes;
  rebuild_vindex ?from:index t;
  Write_set.clear t.ws;
  Ctx.Driver.reset t.driver;
  t.in_batch <- false (* an unsealed batch died with the crash *)

let recover t =
  let open Specpmt_obs in
  Phase.run Phase.Recover @@ fun () ->
  (* replay first: the heap walk must see the restored image *)
  let restored, scan, index =
    replay_internal ~head_slot:t.head_slot ~mode:t.params.recovery t.pm
      ~block_bytes:t.params.block_bytes
  in
  Heap.recover t.heap;
  Tsc.restart_above t.tsc (Log_arena.max_ts scan);
  reattach ~scan ?index t;
  Metrics.incr (Metrics.counter "recover.cycles");
  Metrics.add (Metrics.counter "recover.cells_restored")
    (Hashtbl.length restored);
  Trace.emit "spec.recover" ~a:(Hashtbl.length restored)
    ~b:(Log_arena.max_ts scan)

let snapshot_region t addr len =
  assert (Addr.is_word_aligned addr && len mod 8 = 0);
  Ctx.Driver.run t.driver (fun ctx ->
      for i = 0 to (len / 8) - 1 do
        let a = addr + (i * 8) in
        ctx.Ctx.write a (ctx.Ctx.read a)
      done)

(* Switching crash-consistency mechanisms (Section 4.3.1): because
   SpecPMT uses in-place updates, leaving speculative logging only
   requires persisting the dirty durable data at the transition point.
   The volatile live index holds exactly the set of cells the log covers
   (every logged datum has a freshest entry), so the selective flush is
   O(live) with no log scan.  Once done, the speculative log is no longer
   needed and is emptied, and any other mechanism (undo, redo...) may run
   on the same pool from then on. *)
let switch_out t =
  if Ctx.Driver.in_tx t.driver then
    invalid_arg "Spec_soft.switch_out: open transaction";
  if t.in_batch then invalid_arg "Spec_soft.switch_out: open batch";
  (* 1: persist every datum with a live record *)
  let touched = live_cells t in
  Hashtbl.iter (fun a _ -> Pmem.clwb t.pm a) t.vindex;
  Pmem.sfence t.pm;
  (* 2: the log is now dead weight and must be durably invalidated — not
     just trimmed.  Records left alive in the tail block are a time bomb:
     once another mechanism owns the pool and mutates the same cells, any
     later scan from the head slot would replay the stale speculative
     values over the new owner's committed data.  [reset] persists an
     end-of-log sentinel before recycling the other blocks. *)
  Log_arena.reset t.arena;
  Hashtbl.reset t.vindex;
  Hashtbl.reset t.block_live;
  touched

let create ?(head_slot = Slots.spec_head) ?tsc heap params =
  let pm = Heap.pmem heap in
  let t =
    {
      heap;
      pm;
      params;
      head_slot;
      tsc = (match tsc with Some c -> c | None -> Tsc.create ());
      ws = Write_set.create ();
      arena =
        Log_arena.create heap ~head_slot
          ~block_bytes:params.block_bytes;
      driver = Ctx.Driver.create heap;
      in_batch = false;
      reclaims = 0;
      last_compact_footprint = params.block_bytes;
      vindex = Hashtbl.create 256;
      block_live = Hashtbl.create 16;
      walk =
        { entries = 0; live = 0; blocks = 0; bnd = -1; bnd_blocks = 0;
          bnd_live = 0 };
      walk_step = ignore;
      evac = Log_arena.live_create ();
      prefix_stamp = Hashtbl.create 16;
      bg_spent = 0.0;
    }
  in
  t.walk_step <- walk_step t;
  Ctx.Driver.install t.driver
    {
      begin_tx = (fun () -> Log_arena.begin_record t.arena);
      read = (fun a -> Pmem.load_int pm a);
      write = (fun a v -> tx_write t a v);
      alloc = (fun n -> Heap.alloc heap n);
      frees = Deferred;
      commit = (fun _ -> commit t);
      after_commit =
        (fun () ->
          (* reclamation would rewrite the chain out from under the
             unsealed records; during a batch it is deferred to
             [batch_end] *)
          if not t.in_batch then maybe_reclaim t);
      rollback = (fun () -> rollback t);
    };
  let backend =
    {
      Ctx.name = (if params.data_persist then "SpecSPMT-DP" else "SpecSPMT");
      run_tx = (fun f -> Ctx.Driver.run t.driver f);
      recover = (fun () -> recover t);
      drain = (fun () -> ());
      log_footprint = (fun () -> Log_arena.footprint t.arena);
      supports_recovery = true;
    }
  in
  (backend, t)
