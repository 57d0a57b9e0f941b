(* Bounded admission per shard: a request is admitted iff the shard's
   inflight count (accepted but not yet acknowledged — queued plus
   executing) is below the depth limit.  Overload is shed at the door
   with a retry hint instead of growing the queue without bound.

   The queue is a ring of capacity [depth]: queued <= inflight <= depth,
   so it cannot overflow, and offering and popping allocate nothing.  The
   ring's array is created by the first offer, seeded with that request
   (a polymorphic queue has no other value to fill it with). *)

type 'a t = {
  depth : int;
  mutable ring : 'a array; (* [||] until the first offer *)
  mutable head : int;
  mutable len : int;
  mutable inflight : int;
  mutable accepted : int;
  mutable rejected : int;
  mutable acked : int;
  mutable max_inflight : int;
}

type verdict = Accepted | Rejected of { queued : int }

let create ~depth =
  if depth < 1 then invalid_arg "Admission.create: depth < 1";
  {
    depth;
    ring = [||];
    head = 0;
    len = 0;
    inflight = 0;
    accepted = 0;
    rejected = 0;
    acked = 0;
    max_inflight = 0;
  }

let offer t x =
  if t.inflight >= t.depth then begin
    t.rejected <- t.rejected + 1;
    Rejected { queued = t.len }
  end
  else begin
    if Array.length t.ring = 0 then t.ring <- Array.make t.depth x;
    t.ring.((t.head + t.len) mod t.depth) <- x;
    t.len <- t.len + 1;
    t.inflight <- t.inflight + 1;
    t.accepted <- t.accepted + 1;
    if t.inflight > t.max_inflight then t.max_inflight <- t.inflight;
    Accepted
  end

let pop t =
  if t.len = 0 then invalid_arg "Admission.pop: empty queue";
  let x = t.ring.(t.head) in
  t.head <- (t.head + 1) mod t.depth;
  t.len <- t.len - 1;
  x

let take_up_to t n =
  let rec go acc k =
    if k = 0 || t.len = 0 then List.rev acc else go (pop t :: acc) (k - 1)
  in
  go [] n

(* Acknowledged only once their batch's fence has retired.  The bounds
   check is a real runtime check, not an [assert]: compiled with
   [-noassert] a double-ack would silently drive [inflight] negative and
   the shard would admit without bound from then on.  Acking a request
   still queued would also let queued exceed inflight, and the ring
   overflow. *)
let ack t n =
  if n < 0 || n > t.inflight then
    invalid_arg
      (Printf.sprintf "Admission.ack: %d acks with %d inflight" n t.inflight);
  if n > t.inflight - t.len then
    invalid_arg
      (Printf.sprintf "Admission.ack: %d acks with %d executing" n
         (t.inflight - t.len));
  t.inflight <- t.inflight - n;
  t.acked <- t.acked + n

let queued t = t.len
let inflight t = t.inflight
let accepted t = t.accepted
let rejected t = t.rejected
let acked t = t.acked
let max_inflight t = t.max_inflight

(* post-crash: queued and executing requests died unacknowledged *)
let clear t =
  t.head <- 0;
  t.len <- 0;
  t.inflight <- 0
