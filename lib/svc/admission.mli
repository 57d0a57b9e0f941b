(** Bounded per-shard admission with backpressure.

    A request is admitted iff the shard's {e inflight} count — accepted
    but not yet acknowledged, i.e. queued plus executing — is below the
    depth limit; otherwise it is rejected with a retry hint.  Overload
    thus degrades into client retries instead of unbounded queues
    (tentpole component (c)). *)

type 'a t

type verdict =
  | Accepted
  | Rejected of { queued : int }
      (** retry hint: current queue length, so clients can back off
          proportionally *)

val create : depth:int -> 'a t
(** [depth >= 1]: the inflight bound. *)

val offer : 'a t -> 'a -> verdict
(** Admit or shed one request (sheds are counted). *)

val pop : 'a t -> 'a
(** Dequeue the oldest request; it stays inflight until {!ack}.  Raises
    [Invalid_argument] when nothing is queued.  Allocates nothing. *)

val take_up_to : 'a t -> int -> 'a list
(** Dequeue at most [n] requests in admission order, as a list; see
    {!pop}. *)

val ack : 'a t -> int -> unit
(** Acknowledge [n] executing requests (their commit fence retired).
    Raises [Invalid_argument] if [n < 0] or [n] exceeds the inflight
    count — a double-ack would otherwise unbound admission — or the
    executing (dequeued, unacknowledged) count. *)

val clear : 'a t -> unit
(** Post-crash: drop queued requests and zero the inflight count — they
    died unacknowledged.  Lifetime totals are kept. *)

val queued : 'a t -> int
val inflight : 'a t -> int

val accepted : 'a t -> int
(** Lifetime admitted count. *)

val rejected : 'a t -> int
(** Lifetime shed count. *)

val acked : 'a t -> int
(** Lifetime acknowledged count. *)

val max_inflight : 'a t -> int
(** High-water inflight mark — how deep the shard actually got. *)
