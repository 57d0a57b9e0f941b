(** The no-log ideal (Section 7.1.3): transactions persist their write set
    at commit with one drain and perform no logging whatsoever.  This is
    the performance ceiling for in-place-update persistent transactions —
    and it is {e not} crash consistent. *)

open Specpmt_pmem
open Specpmt_pmalloc
open Specpmt_txn

let create heap =
  let pm = Heap.pmem heap in
  let ws = Write_set.create () in
  let driver = Ctx.Driver.create heap in
  Ctx.Driver.install driver
    {
      begin_tx = ignore;
      read = (fun a -> Pmem.load_int pm a);
      write =
        (fun a v ->
          ignore (Write_set.record ws a ~old_value:0);
          Pmem.store_int pm a v);
      alloc = (fun n -> Heap.alloc heap n);
      frees = Unlogged;
      commit =
        (fun _ ->
          Write_set.iter_in_order ws (fun a _ -> Pmem.clwb pm a);
          Pmem.sfence pm;
          Write_set.clear ws);
      after_commit = ignore;
      rollback = (fun () -> Write_set.clear ws);
    };
  {
    Ctx.name = "no-log";
    run_tx = (fun f -> Ctx.Driver.run driver f);
    recover = (fun () -> invalid_arg "no-log provides no crash consistency");
    drain = (fun () -> ());
    log_footprint = (fun () -> 0);
    supports_recovery = false;
  }
