(* Self-test of the benchmark's oracle: on a small service run it passes
   every completion and key of the real system, and it flags one
   deliberately corrupted expectation (a completion value, a table
   value, a populated flag) as exactly one failure. *)

module Service = Specpmt_svc.Service
module Scenario = Specpmt_svc.Scenario
module Admission = Specpmt_svc.Admission
module Oindex = Specpmt_svc.Oindex

let keys = 512
let shards = 4

(* Saturation-style closed loop: submit until a shed, drain, retry. *)
let run_service mix =
  let stream = Scenario.op_stream (Scenario.spec mix) ~ops:3_000 ~keys ~seed:5 in
  let pm = Specpmt_pmem.Pmem.create ~seed:5 Specpmt_pmem.Config.default in
  let svc =
    Service.create (Specpmt_pmalloc.Heap.create pm)
      { Service.shards; batch_max = 8; depth = 32; keys }
  in
  let got = Array.make (Array.length stream) min_int in
  let on_ack (c : Service.completion) = got.(c.Service.c_client) <- c.Service.value in
  Array.iteri
    (fun i (key, op) ->
      let rec go () =
        match Service.submit svc ~client:i ~key op with
        | Admission.Accepted -> ()
        | Admission.Rejected _ ->
            ignore (Service.drain ~on_ack svc);
            go ()
      in
      go ())
    stream;
  ignore (Service.drain ~on_ack svc);
  (stream, svc, got)

let expect name want got =
  if want <> got then begin
    Printf.eprintf "%s: want %d failures, got %d\n" name want got;
    exit 1
  end

let () =
  List.iter
    (fun mix ->
      let name = Scenario.mix_to_string mix in
      let stream, svc, got = run_service mix in
      let model = Oracle.create ~shards ~keys in
      let expected = Oracle.run model stream in
      let value = Service.peek svc in
      let populated = Some (Oindex.is_populated (Service.oindex svc)) in
      expect (name ^ " completions") 0 (Oracle.completion_failures ~expected ~got);
      expect (name ^ " table") 0 (Oracle.table_failures model ~value ~populated);
      (* corrupt one expected completion *)
      let i = Array.length expected / 2 in
      let bad = Array.copy expected in
      bad.(i) <- bad.(i) + 1;
      expect (name ^ " corrupted completion") 1
        (Oracle.completion_failures ~expected:bad ~got);
      (* a missing ack is a failure too *)
      let missing = Array.copy got in
      missing.(i) <- min_int;
      expect (name ^ " missing ack") 1
        (Oracle.completion_failures ~expected ~got:missing);
      (* corrupt one key of the model's table *)
      let key, _ = stream.(i) in
      let corrupted = Oracle.create ~shards ~keys in
      ignore (Oracle.run corrupted stream);
      ignore (Oracle.write corrupted key (Oracle.value corrupted key + 1));
      expect (name ^ " corrupted table") 1
        (Oracle.table_failures corrupted ~value ~populated);
      (* and one populated flag: a key no op wrote, written (with its
         unchanged value 0) only in the model *)
      let flagged = Oracle.create ~shards ~keys in
      ignore (Oracle.run flagged stream);
      let fresh = ref 0 in
      while Oracle.populated flagged !fresh do incr fresh done;
      ignore (Oracle.write flagged !fresh 0);
      expect (name ^ " corrupted populated flag") 1
        (Oracle.table_failures flagged ~value ~populated))
    [ Scenario.A; Scenario.E; Scenario.F ];
  print_endline "oracle self-test: ok"
