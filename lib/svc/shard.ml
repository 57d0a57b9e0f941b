open Specpmt_pmem
open Specpmt_backends
open Specpmt_txn
module Metrics = Specpmt_obs.Metrics

type op = Read | Write of int | Rmw of int | Scan of int

(* Multiplicative hash (Knuth's 2^32 ratio): the product is masked to
   the intended 32-bit hash before the shift.  The parentheses are
   load-bearing — [lsr] binds tighter than [*] in OCaml, so the
   unparenthesized [k * 2654435761 lsr 13 mod shards] multiplies by
   [2654435761 lsr 13 = 324027 = 27 * 11 * 1091] instead, and any shard
   count dividing 324027 (3, 9, 11, 27, 33...) routes every key to
   shard 0. *)
let route ~shards k = ((k * 2654435761) land 0xFFFF_FFFF) lsr 13 mod shards

let rows ~shards ~keys =
  let rev = Array.make shards [] in
  for k = keys - 1 downto 0 do
    let s = route ~shards k in
    rev.(s) <- k :: rev.(s)
  done;
  Array.map Array.of_list rev

let validate ~keys k op =
  if k < 0 || k >= keys then invalid_arg "Shard.validate: bad key";
  match op with
  | Scan len when len < 1 -> invalid_arg "Shard.validate: scan length < 1"
  | _ -> ()

(* Adoption (Section 4.3.2): without it, a crash during the first ever
   write to a key would leave a torn value recovery cannot revert. *)
let adopt pool ~addr rows =
  Array.iteri
    (fun id row ->
      if Array.length row > 0 then
        (Spec_mt.thread pool id).Ctx.run_tx (fun ctx ->
            Array.iter (fun k -> ctx.Ctx.write addr.(k) 0) row))
    rows

type t = {
  id : int;
  backend : Ctx.backend;
  rt : Spec_soft.t;
  batching : bool;  (* false for data-persist runtimes *)
  addr : Addr.t array;
  mutable oidx : Oindex.t;
  mutable sealing : bool;
  mutable batches : int;
  mutable sealed : int;
  (* the current op, fed to [job] through these fields so that one
     closure, built at [create], serves every op *)
  mutable key : int;
  mutable op : op;
  mutable res : int;
  job : Ctx.ctx -> unit;
}

let run_op t ctx =
  let k = t.key in
  match t.op with
  | Read -> t.res <- ctx.Ctx.read t.addr.(k)
  | Write v ->
      let a = t.addr.(k) in
      (* the first client write indexes the key in the same transaction
         as the cell store: entry and cell are atomic together *)
      Oindex.ensure ctx t.oidx ~shard:t.id ~key:k ~addr:a;
      ctx.Ctx.write a v;
      t.res <- v
  | Rmw d ->
      let a = t.addr.(k) in
      Oindex.ensure ctx t.oidx ~shard:t.id ~key:k ~addr:a;
      let v = ctx.Ctx.read a + d in
      ctx.Ctx.write a v;
      t.res <- v
  | Scan len -> t.res <- Oindex.scan ctx t.oidx ~shard:t.id ~anchor:k ~len

let create pool ~id ~addr oidx =
  let rt = Spec_mt.runtime pool id in
  let rec t =
    {
      id;
      backend = Spec_mt.thread pool id;
      rt;
      batching = not (Spec_soft.params rt).Spec_soft.data_persist;
      addr;
      oidx;
      sealing = false;
      batches = 0;
      sealed = 0;
      key = 0;
      op = Read;
      res = 0;
      job = (fun ctx -> run_op t ctx);
    }
  in
  t

let batch_begin t = if t.batching then Spec_soft.batch_begin t.rt

let exec t ~key op =
  t.key <- key;
  t.op <- op;
  t.backend.Ctx.run_tx t.job;
  t.res

let batch_end t ~n =
  if t.batching then begin
    t.sealing <- true;
    let sealed = Spec_soft.batch_end t.rt in
    t.sealing <- false;
    t.sealed <- t.sealed + sealed
  end;
  if n > 0 then begin
    t.batches <- t.batches + 1;
    (* looked up per seal: metric cells are domain-local, and a
       module-level lazy would capture (and race on) the cell of
       whichever domain forced it first *)
    Specpmt_obs.Hist.observe (Metrics.histogram "svc.batch_size") n;
    Metrics.incr (Metrics.counter "svc.batches")
  end

let sealing t = t.sealing
let batches t = t.batches
let sealed_records t = t.sealed

let reset t oidx =
  t.sealing <- false;
  t.oidx <- oidx
