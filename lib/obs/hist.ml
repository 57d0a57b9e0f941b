let nbuckets = 64

(* The running sum sits in an all-float record of its own: a float field
   of the mixed [t] would box on every [observe]. *)
type sum = { mutable total : float }

type t = {
  mutable count : int;
  sum : sum;
  mutable min : int;
  mutable max : int;
  buckets : int array;
}

type snapshot = {
  count : int;
  sum : float;
  min : int;
  max : int;
  buckets : (int * int) list;
}

let create () : t =
  { count = 0; sum = { total = 0.0 }; min = max_int; max = min_int;
    buckets = Array.make nbuckets 0 }

let bucket_of v =
  if v <= 0 then 0
  else
    (* 1 + floor(log2 v), capped *)
    let rec go v i = if v = 0 then i else go (v lsr 1) (i + 1) in
    min (go v 0) (nbuckets - 1)

(* inclusive lower bound of bucket [i] *)
let bucket_lo i = if i = 0 then 0 else 1 lsl (i - 1)
let bucket_hi i = if i = 0 then 0 else (1 lsl i) - 1

let observe (t : t) v =
  t.count <- t.count + 1;
  t.sum.total <- t.sum.total +. float_of_int v;
  if v < t.min then t.min <- v;
  if v > t.max then t.max <- v;
  let b = t.buckets in
  let i = bucket_of v in
  b.(i) <- b.(i) + 1

let reset (t : t) =
  t.count <- 0;
  t.sum.total <- 0.0;
  t.min <- max_int;
  t.max <- min_int;
  Array.fill t.buckets 0 nbuckets 0

let absorb (t : t) (s : snapshot) =
  if s.count > 0 then begin
    t.count <- t.count + s.count;
    t.sum.total <- t.sum.total +. s.sum;
    if s.min < t.min then t.min <- s.min;
    if s.max > t.max then t.max <- s.max;
    List.iter
      (fun (lo, n) ->
        let i = bucket_of lo in
        t.buckets.(i) <- t.buckets.(i) + n)
      s.buckets
  end

let snapshot (t : t) : snapshot =
  let buckets = ref [] in
  for i = nbuckets - 1 downto 0 do
    if t.buckets.(i) > 0 then buckets := (bucket_lo i, t.buckets.(i)) :: !buckets
  done;
  {
    count = t.count;
    sum = t.sum.total;
    min = (if t.count = 0 then 0 else t.min);
    max = (if t.count = 0 then 0 else t.max);
    buckets = !buckets;
  }

let mean (s : snapshot) =
  if s.count = 0 then 0.0 else s.sum /. float_of_int s.count

let quantile (s : snapshot) q =
  if s.count = 0 then 0
  else begin
    let rank = int_of_float (ceil (q *. float_of_int s.count)) in
    let rank = Stdlib.max 1 (Stdlib.min rank s.count) in
    let seen = ref 0 and result = ref s.max in
    (try
       List.iter
         (fun (lo, n) ->
           seen := !seen + n;
           if !seen >= rank then begin
             let i = bucket_of lo in
             result := Stdlib.min s.max (bucket_hi i);
             raise Exit
           end)
         s.buckets
     with Exit -> ());
    !result
  end

let to_json (s : snapshot) =
  Json.Obj
    [
      ("count", Json.Int s.count);
      ("sum", Json.Float s.sum);
      ("mean", Json.Float (mean s));
      ("min", Json.Int s.min);
      ("max", Json.Int s.max);
      ("p50", Json.Int (quantile s 0.50));
      ("p90", Json.Int (quantile s 0.90));
      ("p99", Json.Int (quantile s 0.99));
      ( "buckets",
        Json.List
          (List.map
             (fun (lo, n) -> Json.List [ Json.Int lo; Json.Int n ])
             s.buckets) );
    ]
