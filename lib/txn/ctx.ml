(** The common transactional interface.

    Workloads (the STAMP ports, the examples) are written against {!ctx},
    a first-class record of operations valid inside one open transaction,
    and {!backend}, the scheme-agnostic handle exposing [run_tx] and
    recovery.  Every crash-consistency scheme — software or simulated
    hardware — provides this same interface, so a workload runs unchanged
    under PMDK-style undo logging, Kamino-Tx, SPHT, SpecPMT, EDE, HOOP...

    Addresses and values are word-granular (8-byte cells), matching the
    simulator; backends account sub-word application writes by byte size
    when profiling (Table 2) but log at cell granularity. *)

open Specpmt_pmem
open Specpmt_pmalloc

type ctx = {
  read : Addr.t -> int;  (** transactional load of an 8-byte cell *)
  write : Addr.t -> int -> unit;  (** transactional store of an 8-byte cell *)
  alloc : int -> Addr.t;
      (** persistent allocation, given back if the transaction aborts *)
  free : Addr.t -> unit;
  on_end : (bool -> unit) -> unit;
      (** Register a volatile outcome hook on the open transaction: the
          callback fires exactly once when the transaction ends —
          [true] after a successful commit, [false] after a rollback or
          when any exception (including a device crash) escapes the
          transaction body without committing.  Hooks are volatile
          bookkeeping only (DRAM caches staging their deltas, e.g. the
          {!Specpmt_pstruct} shadow mirror): they must not touch the
          device, and they do not survive recovery — post-crash state
          is rebuilt from media, never from hook effects.
          Non-transactional contexts ({!raw_ctx}) invoke the callback
          immediately with [true]; read-only contexts ({!peek_ctx})
          raise [Invalid_argument]. *)
}

(** Outcome-hook registry behind {!ctx.on_end}.  {!Driver} keeps one
    per backend instance: it collects the callbacks while a transaction
    runs and fires them with the outcome from its commit, abort and
    exception arms only — never from a backend's commit or rollback
    step, since some backends roll back by committing compensating
    writes. *)
module Hooks = struct
  type t = { mutable fns : (bool -> unit) list }

  let create () = { fns = [] }
  let register t f = t.fns <- f :: t.fns

  (* fire in registration order; clear first so a hook that itself opens
     a transaction cannot re-enter a stale list *)
  let fire t ok =
    match t.fns with
    | [] -> ()
    | fns ->
        t.fns <- [];
        List.iter (fun f -> f ok) (List.rev fns)
end

exception Abort
(** Raised by user code to abort the open transaction; the backend rolls
    back volatile effects where its model supports it. *)

type backend = {
  name : string;
  run_tx : 'a. (ctx -> 'a) -> 'a;
      (** Run a crash-atomic transaction.  If {!Specpmt_pmem.Pmem.Crash}
          escapes, the device is mid-crash: the caller must invoke
          [Pmem.crash] and then [recover]. *)
  recover : unit -> unit;
      (** Post-crash recovery: restore every committed effect, revoke every
          uncommitted one, and reinitialise the backend's runtime state. *)
  drain : unit -> unit;
      (** Complete all background work (log replay, reclamation) — used at
          the end of a measured run so that schemes with deferred work pay
          their full traffic. *)
  log_footprint : unit -> int;
      (** Current persistent bytes devoted to log structures (for the
          memory-consumption analyses, Fig. 15). *)
  supports_recovery : bool;
      (** False for performance-upper-bound models (our Kamino-Tx port,
          mirroring the paper's methodology) that cannot actually recover. *)
}

(** Non-transactional direct access used by setup phases and verification.
    Reads and writes go straight to the device with no logging. *)
let raw_ctx (heap : Heap.t) =
  let pm = Heap.pmem heap in
  {
    read = (fun a -> Pmem.load_int pm a);
    write = (fun a v -> Pmem.store_int pm a v);
    alloc = (fun n -> Heap.alloc heap n);
    free = (fun a -> Heap.free heap a);
    (* non-transactional: every effect is already final when made, so an
       outcome hook can only ever observe a commit — fire it now (which
       is why hook users must stage their delta BEFORE registering) *)
    on_end = (fun f -> f true);
  }

(** Read-only, unmetered access for recovery rediscovery and post-crash
    audits: reads bypass the cache and the device clock
    ({!Specpmt_pmem.Pmem.peek_volatile_int}, so auditing a structure
    costs no simulated time and dirties no line); writes, allocation
    and free raise [Invalid_argument]. *)
let peek_ctx (pm : Pmem.t) =
  {
    read = (fun a -> Pmem.peek_volatile_int pm a);
    write = (fun _ _ -> invalid_arg "Ctx.peek_ctx: read-only");
    alloc = (fun _ -> invalid_arg "Ctx.peek_ctx: read-only");
    free = (fun _ -> invalid_arg "Ctx.peek_ctx: read-only");
    on_end = (fun _ -> invalid_arg "Ctx.peek_ctx: read-only");
  }

(** The one transaction driver behind every crash-consistency backend.

    A backend supplies only its {!Driver.steps}: how a transaction
    begins, reads, writes, allocates, commits and rolls back.  The driver
    owns everything around them, once for all backends:

    - {b Nesting.}  One transaction at a time per backend instance;
      {!Driver.run} inside an open transaction raises
      [Invalid_argument].  {!Driver.in_tx} exposes the flag to backend
      operations that must run between transactions.
    - {b The dispatch arms.}  When the body returns, [commit] runs, then
      the deferred frees are released, then [after_commit], then the
      hooks fire [true].  On {!Abort}, [rollback] runs, the
      transaction's allocations are given back, and the hooks fire
      [false].  On any other exception (notably
      {!Specpmt_pmem.Pmem.Crash}) the hooks fire [false] and nothing
      else runs: the transaction stays open — {!Driver.run} refuses new
      ones — until the backend's recovery calls {!Driver.reset}.  Hooks
      fire from these arms only.
    - {b Deferred frees.}  [ctx.free] only records the block; the
      release happens after commit and the list is dropped on abort and
      crash, so an uncommitted free never becomes durable.
    - {b Allocation give-back.}  Blocks allocated by an aborted
      transaction are freed again after its rollback; a crash instead
      leaves them to the heap's recovery walk.
    - {b One ctx.}  The {!ctx} record and the hook registry are built
      once per backend instance, not per transaction.

    The no-log ideal opts out of the frees, the give-back and the open
    transaction after a crash ({!Driver.Unlogged}). *)
module Driver = struct
  (** What [ctx.free] does, by scheme. *)
  type frees =
    | Deferred
        (** record the block; the driver releases it with [Heap.free]
            after [commit] *)
    | Logged
        (** record the block and hand the list to [commit], which
            releases it itself (SpecHPMT clears block headers through
            logged stores) *)
    | Unlogged
        (** no atomicity, the no-log ideal: [ctx.free] frees at once, an
            aborted transaction keeps its allocations (its writes are
            not undone either, so the body may have linked them), and
            any exception ends the transaction through [rollback] *)

  type steps = {
    begin_tx : unit -> unit;  (** before the body runs *)
    read : Addr.t -> int;  (** [ctx.read] *)
    write : Addr.t -> int -> unit;  (** [ctx.write] *)
    alloc : int -> Addr.t;  (** [ctx.alloc] before the driver records it *)
    frees : frees;
    commit : Addr.t list -> unit;
        (** make the transaction durable; receives the deferred frees,
            newest first *)
    after_commit : unit -> unit;
        (** background work a commit may trigger (log replay, garbage
            collection, reclamation), after the frees are released *)
    rollback : unit -> unit;  (** undo the transaction's effects *)
  }

  type t = {
    heap : Heap.t;
    hooks : Hooks.t;
    mutable in_tx : bool;
    mutable deferred : Addr.t list;  (** frees of the open transaction *)
    mutable allocated : Addr.t list;  (** its allocations *)
    mutable steps : steps option;
    mutable ctx : ctx;
  }

  (** A driver with no steps yet: a backend creates it first, keeps it
      in its runtime state, then {!install}s steps that close over that
      state. *)
  let create heap =
    {
      heap;
      hooks = Hooks.create ();
      in_tx = false;
      deferred = [];
      allocated = [];
      steps = None;
      ctx = peek_ctx (Heap.pmem heap) (* until [install] *);
    }

  (** Bind the backend's steps and build the instance's one {!ctx}. *)
  let install d s =
    d.steps <- Some s;
    d.ctx <-
      {
        read = s.read;
        write = s.write;
        alloc =
          (fun n ->
            let a = s.alloc n in
            d.allocated <- a :: d.allocated;
            a);
        free =
          (match s.frees with
          | Deferred | Logged -> fun a -> d.deferred <- a :: d.deferred
          | Unlogged -> Heap.free d.heap);
        on_end = Hooks.register d.hooks;
      }

  let in_tx d = d.in_tx

  let close d =
    d.in_tx <- false;
    d.deferred <- [];
    d.allocated <- []

  (** Close a transaction a crash left open, dropping its frees,
      allocations and hooks unapplied.  Backend recovery calls it. *)
  let reset d =
    close d;
    d.hooks.fns <- []

  let rec free_all heap = function
    | [] -> ()
    | a :: rest ->
        Heap.free heap a;
        free_all heap rest

  (** Run one transaction (the backend's [run_tx]).  Each arm fires the
      hooks itself, so a committed transaction allocates no outcome
      value. *)
  let run d f =
    if d.in_tx then invalid_arg "Ctx.Driver.run: nested transaction";
    let s = Option.get d.steps in
    d.in_tx <- true;
    s.begin_tx ();
    match f d.ctx with
    | v ->
        s.commit d.deferred;
        (match s.frees with
        | Deferred -> free_all d.heap (List.rev d.deferred)
        | Logged | Unlogged -> ());
        close d;
        s.after_commit ();
        Hooks.fire d.hooks true;
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        (match (e, s.frees) with
        | Abort, (Deferred | Logged) ->
            s.rollback ();
            free_all d.heap d.allocated;
            close d
        | _, Unlogged ->
            s.rollback ();
            close d
        | _, (Deferred | Logged) ->
            (* a crash: the transaction stays open until [reset] *)
            ());
        Hooks.fire d.hooks false;
        Printexc.raise_with_backtrace e bt
end
