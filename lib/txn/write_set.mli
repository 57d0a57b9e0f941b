(** Per-transaction write-set index.

    For each 8-byte cell written by the open transaction it keeps the
    value it held before the first write (the undo image) and a
    backend-specific position of the cell's log entry, so repeated updates
    freshen a single entry — the paper's write-set indexing that keeps only
    the last update of a datum per transaction (Section 4). *)

open Specpmt_pmem

type slot = {
  mutable old_value : int;
      (** value before the transaction's first write (mutable only so the
          container can recycle slot records across transactions) *)
  mutable entry_pos : int;
      (** backend-specific position of the cell's log entry; [-1] if the
          backend has not materialised one *)
  mutable last_value : int;
      (** most recent value written to the cell this transaction — lets
          commit feed a volatile live-entry index without re-reading the
          device *)
  mutable entry_block : int;
      (** log block holding the cell's entry ([-1] if none) — feeds the
          per-block liveness accounting behind adaptive reclamation *)
}

type t

val create : unit -> t
val clear : t -> unit
(** Empty the set for the next transaction.  Costs O(cells used), not
    O(the largest transaction seen): only the probe slots the cells
    landed in are reset. *)

val size : t -> int

val record : t -> Addr.t -> old_value:int -> slot
(** Note a write and return the cell's slot ([old_value] is only stored
    on the cell's first write in the transaction). *)

val fresh : t -> bool
(** Whether the latest {!record} was the cell's first write in the
    transaction. *)

val find : t -> Addr.t -> slot option

val nth_addr : t -> int -> Addr.t
(** [nth_addr t i] is the [i]-th cell in first-write order,
    [0 <= i < size t] — with {!nth_slot}, a closure-free walk for hot
    loops. *)

val nth_slot : t -> int -> slot
(** The slot of the [i]-th cell (see {!nth_addr}). *)

val iter_in_order : t -> (Addr.t -> slot -> unit) -> unit
(** Cells in first-write order, oldest first.  A straight walk over the
    flat cell arrays — no hashing, no allocation; this is the commit
    path. *)

val iter_newest_first : t -> (Addr.t -> slot -> unit) -> unit
(** Reverse order — the order an undo rollback applies compensation in. *)
