(* Spans recorded by the benchmark around the public calls it makes into
   each layer: name, host start and end, and the span that caused it.
   They are kept in memory and written out when the benchmark ends, so
   recording costs two clock reads and a few array stores.  Recording is
   off unless a traced run turns it on; [start] then returns -1 and
   [stop] ignores it. *)

(* Host monotonic clock, seconds (CLOCK_MONOTONIC, ns resolution). *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type log = {
  mutable on : bool;
  mutable n : int;
  mutable name : string array;
  mutable parent : int array;
  mutable t0 : float array;
  mutable t1 : float array;
}

let log = { on = false; n = 0; name = [||]; parent = [||]; t0 = [||]; t1 = [||] }
let set_enabled b = log.on <- b

let grow () =
  let cap = max 1024 (2 * log.n) in
  let ext a d = Array.append a (Array.make (cap - Array.length a) d) in
  log.name <- ext log.name "";
  log.parent <- ext log.parent (-1);
  log.t0 <- ext log.t0 0.0;
  log.t1 <- ext log.t1 0.0

(* Open a span and return its id. *)
let start ?(parent = -1) name =
  if not log.on then -1
  else begin
    if log.n = Array.length log.t0 then grow ();
    let id = log.n in
    log.n <- id + 1;
    log.name.(id) <- name;
    log.parent.(id) <- parent;
    log.t1.(id) <- nan;
    log.t0.(id) <- now ();
    id
  end

let stop id = if id >= 0 then log.t1.(id) <- now ()

let with_ ?parent name f =
  let id = start ?parent name in
  Fun.protect ~finally:(fun () -> stop id) f

let duration id = log.t1.(id) -. log.t0.(id)

(* Ids of the closed spans called [name] opened at or after span [from],
   oldest first. *)
let ids ?(from = 0) name =
  let acc = ref [] in
  for i = log.n - 1 downto max from 0 do
    if log.name.(i) = name && not (Float.is_nan log.t1.(i)) then acc := i :: !acc
  done;
  !acc

(* Named int arrays written beside the spans, e.g. stream index -> id of
   the drain span that acknowledged the op: ops of one drain share an id. *)
let groups = ref []
let add_group name a = if log.on then groups := (name, a) :: !groups

(* Write every span as JSON:
   [{"spans": [[id, name, parent, t0, t1], ..], "groups": {name: [..]}}],
   times in monotonic-clock seconds, [t1] null for a span left open. *)
let write path =
  let oc = open_out path in
  Printf.fprintf oc "{\"spans\": [";
  for i = 0 to log.n - 1 do
    let t1 = log.t1.(i) in
    Printf.fprintf oc "%s\n[%d, %S, %d, %.9f, %s]"
      (if i = 0 then "" else ",")
      i log.name.(i) log.parent.(i) log.t0.(i)
      (if Float.is_nan t1 then "null" else Printf.sprintf "%.9f" t1)
  done;
  Printf.fprintf oc "],\n\"groups\": {";
  List.iteri
    (fun j (name, a) ->
      Printf.fprintf oc "%s\n%S: [%s]"
        (if j = 0 then "" else ",")
        name
        (String.concat "," (Array.to_list (Array.map string_of_int a))))
    (List.rev !groups);
  Printf.fprintf oc "}}\n";
  close_out oc
