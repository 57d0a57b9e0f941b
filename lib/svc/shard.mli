(** The per-shard executor: one shard's group-commit batcher and the only
    code that runs service ops.  The serial {!Service} runs it inline,
    the {!Dataplane} on the shard's worker domain; the two drivers differ
    only in queueing, routing, acknowledgement and the key->cell map
    they pass in.

    {b Batch protocol}: {!batch_begin}, one {!exec} per op, {!batch_end}.
    Under {!Specpmt_backends.Spec_soft} each op commits a tentative
    (poisoned-checksum, unfenced) record, and the seal persists the
    batch with one flush run and a single fence, so K batched ops share
    one fence.  A crash before the seal leaves nothing visible to
    recovery; one inside it ({!sealing}) may leave any prefix durable,
    since the valid-prefix scan stops at the first still-poisoned
    checksum.  Data-persist runtimes fence per transaction, so for them
    a batch is plain sequential commits.

    {b Adoption}: speculative logging can revoke an uncommitted in-place
    update only to a cell logged before (Section 4.3.2), so {!adopt}
    must commit before any op runs.  {b After a crash}, once
    {!Specpmt_backends.Spec_mt.recover} has replayed the logs, {!reset}
    closes the interrupted seal and hands over the rediscovered index. *)

open Specpmt_pmem
open Specpmt_backends

type op =
  | Read  (** point read of the key's cell *)
  | Write of int  (** blind write (YCSB update/insert) *)
  | Rmw of int
      (** read-modify-write as a {e single} transaction: read the cell,
          add the delta, write it back under the same speculative record
          (YCSB-F's workhorse); the completion value is the new cell
          value *)
  | Scan of int
      (** ordered scan of up to [len >= 1] {e populated} keys (keys
          some client write has touched), served by the shard's
          persistent {!Specpmt_pstruct.Pbtree} via {!Oindex.scan}:
          walks the tree from the smallest populated key [>= anchor]
          in ascending key order, never crossing a shard, so cell
          ownership and the data plane's line-disjointness hold; the
          completion value is the order-sensitive checksum
          [acc = (acc*31 + key + value) land max_int] over the window
          (0 when no populated key follows the anchor in its shard) *)

val route : shards:int -> int -> int
(** The pure router hash: 32-bit Fibonacci (Knuth multiplicative)
    hashing of the key, reduced mod [shards]. *)

val rows : shards:int -> keys:int -> int array array
(** The owned-key rows: shard -> the keys {!route} gives it, ascending. *)

val validate : keys:int -> int -> op -> unit
(** Raise [Invalid_argument] on a key outside [[0, keys)] or a [Scan]
    of length < 1. *)

val adopt : Spec_mt.t -> addr:Addr.t array -> int array array -> unit
(** One committed transaction per non-empty row, on that shard's
    backend, writing 0 to the cell [addr.(k)] of every key [k] in the
    row.  Adoption does not populate the ordered index: an unwritten key
    is absent from scans. *)

type t

val create : Spec_mt.t -> id:int -> addr:Addr.t array -> Oindex.t -> t
(** The executor of shard [id] of the pool, over the key->cell map
    [addr].  Builds the shard's one transaction closure. *)

val batch_begin : t -> unit

val exec : t -> key:int -> op -> int
(** Run [op] on [key] as one transaction inside the open batch and
    return its completion value: the value read, the value written, the
    Rmw's new value or the Scan checksum.  A write or Rmw indexes a
    key on its first client write, in the same transaction as the cell
    store.  The executor itself allocates nothing per op. *)

val batch_end : t -> n:int -> unit
(** Seal the open batch.  [n] is the number of ops executed since
    {!batch_begin}; when [n > 0] it is observed into the
    [svc.batch_size] histogram and bumps the [svc.batches] counter. *)

val sealing : t -> bool
(** True exactly while a seal runs: a crash observed with this set may
    have made any prefix of that batch durable; otherwise the
    acknowledged/unacknowledged boundary is exact. *)

val batches : t -> int
(** Batches executed. *)

val sealed_records : t -> int
(** Records made durable by seals (read-only transactions add none). *)

val reset : t -> Oindex.t -> unit
(** Post-crash: clear the sealing flag and adopt the index that
    {!Oindex.recover} returned. *)
