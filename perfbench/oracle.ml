(* The benchmark's correctness oracle: a pure sequential model of the
   sharded KV service, independent of every layer it checks.

   The service executes each shard's ops in admission order and a key
   lives on exactly one shard, so replaying a stream one op at a time
   against a flat table gives the value every completion must carry —
   including scans, which only ever walk their anchor's shard.  Cells
   start at 0 (the adoption transaction writes 0); a key becomes
   populated on its first [Write] or [Rmw]. *)

module Service = Specpmt_svc.Service
module IntSet = Set.Make (Int)

type t = {
  shards : int;
  vals : int array;
  populated : bool array;
  index : IntSet.t array;  (* shard -> its populated keys *)
}

let create ~shards ~keys =
  {
    shards;
    vals = Array.make keys 0;
    populated = Array.make keys false;
    index = Array.make shards IntSet.empty;
  }

let keys t = Array.length t.vals
let value t k = t.vals.(k)
let populated t k = t.populated.(k)

let write t k v =
  if not t.populated.(k) then begin
    t.populated.(k) <- true;
    let s = Service.route ~shards:t.shards k in
    t.index.(s) <- IntSet.add k t.index.(s)
  end;
  t.vals.(k) <- v;
  v

(* The order-sensitive scan checksum of [Service.op.Scan]: up to [len]
   populated keys of the anchor's shard, ascending from the anchor. *)
let scan t ~anchor ~len =
  let s = Service.route ~shards:t.shards anchor in
  let rec walk acc left seq =
    if left = 0 then acc
    else
      match seq () with
      | Seq.Nil -> acc
      | Seq.Cons (k, rest) ->
          walk (((acc * 31) + k + t.vals.(k)) land max_int) (left - 1) rest
  in
  walk 0 len (IntSet.to_seq_from anchor t.index.(s))

(* Apply one op and return the value its completion must carry. *)
let apply t (key, op) =
  match op with
  | Service.Read -> t.vals.(key)
  | Service.Write v -> write t key v
  | Service.Rmw d -> write t key (t.vals.(key) + d)
  | Service.Scan len -> scan t ~anchor:key ~len

(* Expected completion values of a stream, in stream order, advancing
   the model past it. *)
let run t stream = Array.map (apply t) stream

(* Ops whose completion is missing or carries another value than the
   model's.  [got.(i)] is [min_int] when op [i] was never acknowledged —
   a value no completion carries (writes are positive, scan checksums
   non-negative). *)
let completion_failures ~expected ~got =
  let bad = ref 0 in
  Array.iteri (fun i e -> if got.(i) <> e then incr bad) expected;
  !bad

(* Keys whose value or populated flag differs from the model. *)
let table_failures t ~value ~populated =
  let bad = ref 0 in
  for k = 0 to keys t - 1 do
    match populated with
    | Some p when p k <> t.populated.(k) -> incr bad
    | _ -> if value k <> t.vals.(k) then incr bad
  done;
  !bad
