(** Chained-block, append-only persistent log (paper Section 4.1).

    The log area is a chain of fixed-size {e log blocks} allocated from the
    persistent heap on demand.  Records are appended sequentially; each
    record is [{size; timestamp; checksum}] metadata followed by 16-byte
    entries [(target address, value)].  When a record outgrows its block, a
    {e marker entry} embeds a forward block pointer and the record continues
    in a fresh block, exactly as in Figure 6.  The checksum covers metadata
    (size, timestamp), entries and markers, and doubles as the commit
    status: recovery replays records from the head and stops at the first
    mismatch (Section 4.1, "the checksum also serves as the transaction's
    commit status").

    Appends are plain stores — nothing is flushed until {!commit_record},
    which persists the whole record with one flush run and a single fence.

    {!compact} implements the reclamation copy-and-splice of Section 4.2:
    fresh entries are copied into new blocks, the new chain is made live by
    one atomic head-pointer switch, and stale blocks return to the heap —
    two fences per cycle, crash-safe at every point. *)

open Specpmt_pmem
open Specpmt_pmalloc

type t

type entry_pos = int
(** Absolute address of an entry's value cell, for in-place freshening. *)

val create : Heap.t -> head_slot:int -> block_bytes:int -> t
(** Fresh empty log; persists the head pointer in root slot [head_slot]. *)

type scan
(** What a recovery scan learned about one log: enough for {!attach} to
    resume appending without reading the records again. *)

val attach : ?scan:scan -> Heap.t -> head_slot:int -> block_bytes:int -> t
(** Reattach after a crash and resume appending after the valid prefix.
    With [scan] (the data recovery's own {!recover_scan} or
    {!recover_collect} of the same log, taken before any append) only the
    block chain is walked; without it the records are scanned again.
    @raise Invalid_argument if [scan] was taken from another log. *)

(** {1 Appending} *)

val begin_record : t -> unit
(** Open a record.  At most one record may be open. *)

val add_entry : t -> target:Addr.t -> value:int -> entry_pos
(** Append an entry to the open record (plain stores, no persistence). *)

val set_entry_value : t -> entry_pos -> int -> unit
(** Overwrite the value of an already-appended entry of the open record —
    write-set indexing keeps one entry per datum per transaction. *)

val abandon_record : t -> unit
(** Drop the open record; only legal while it has no entries.  Read-only
    transactions must use this instead of committing a zero-entry record,
    which would read as the end-of-log sentinel. *)

val commit_record :
  ?fence:bool -> ?flush:bool -> ?tentative:bool -> t -> timestamp:int -> unit
(** Seal the open record: write metadata with the checksum commit marker,
    flush every line of the record, and issue one fence.  [~fence:false]
    skips the fence — used by the hardware bulk-copy engine, whose flushes
    are persistent on write-pending-queue acceptance (ADR) and whose
    ordering is enforced by the engine itself (Section 5.1).
    [~flush:false] skips persistence entirely: the record drains via cache
    evictions — only for logs whose content recovery never reads (HOOP's
    address-mapping log).

    [~tentative:true] is the group-commit path: the record is written with
    a deliberately poisoned checksum and neither flushed nor fenced, so it
    stays invisible to every scan no matter which of its lines a crash
    persists.  {!seal_tentative} later patches the true checksums and
    persists the whole batch under one flush run and a single fence.
    While tentative records are pending, only further tentative commits
    are legal (an individually-persisted record appended behind a
    checksum gap would be unreachable), and reclamation / reset /
    epoch operations must wait for the seal. *)

val seal_tentative : t -> int
(** Persist the pending group-commit batch: write the true checksum into
    every tentative record (oldest first), flush all their spans plus any
    pending chain pointers in one run, and issue a single fence.  Returns
    the number of records sealed (0 when no batch is pending).  A crash
    inside the seal durably commits a prefix of the batch in append
    order — the valid-prefix scan stops at the first still-poisoned
    checksum — so batched transactions become visible all-or-prefix, never
    out of order. *)

val tentative_records : t -> int
(** Number of tentative (committed-but-unsealed) records pending. *)

val entry_words : t -> int
(** Number of entries in the open record. *)

val has_open_record : t -> bool

val append_page_record :
  ?fence:bool -> t -> timestamp:int -> page_base:Addr.t -> unit
(** Append a standalone, already-committed record embedding the current
    4 KiB image of the page at [page_base] — the hardware bulk-copy
    engine's page adoption (Section 5.1).  May not be called while a
    record is open.  Scanning expands the image into per-word entries.
    Fence-free by default (persistent on WPQ acceptance). *)

(** {1 Scanning (recovery path, works on any attached or crashed image)} *)

val recover_scan :
  Pmem.t ->
  head_slot:int ->
  block_bytes:int ->
  f:(ts:int -> (Addr.t * int) array -> unit) ->
  scan
(** Walk the valid record prefix from the head pointer, oldest first,
    calling [f] per record.  Stops at the first checksum mismatch — later
    records are by construction uncommitted. *)

val recover_collect :
  Pmem.t ->
  head_slot:int ->
  block_bytes:int ->
  index:(Addr.t, int * int * Addr.t) Hashtbl.t ->
  scan
(** Coalescing scan: one walk over the valid record prefix folds every
    entry into [index], a last-writer-wins map from cell address to
    [(value, commit timestamp, holding block)].  An entry replaces an
    existing binding iff its timestamp is at least as new.  Unlike
    {!recover_scan} + replay, applying [index] writes each live cell
    exactly once — recovery work becomes O(live set), not O(log). *)

val merge_index :
  into:(Addr.t, int * int * Addr.t) Hashtbl.t ->
  (Addr.t, int * int * Addr.t) Hashtbl.t ->
  unit
(** Fold one log's {!recover_collect} index into [into] by the same rule:
    with timestamps unique across logs, this is the global timestamp merge. *)

val max_ts : scan -> int
(** Largest commit timestamp seen (0 if none). *)

val records_scanned : scan -> int
val entries_scanned : scan -> int
(** Valid records and their entries (a page record counts its words). *)

val write_back : ?store:('a -> int) -> Pmem.t -> (Addr.t, 'a) Hashtbl.t -> unit
(** Persist the cells a recovery restored: with [store], first store each
    cell's value from its binding, in ascending address order; then one
    [clwb] per distinct line in ascending order and a single fence. *)

(** {1 Reclamation} *)

type compact_stats = {
  records_scanned : int;
  entries_scanned : int;
  entries_live : int;
  blocks_freed : int;
  blocks_allocated : int;
}

val compact : t -> compact_stats
(** Reclaim stale records: copy the freshest entry of every datum into new
    blocks, atomically switch the head pointer, free old blocks.  Each
    surviving entry keeps the timestamp of the record it came from — the
    compacted output is one record per contributing timestamp, in
    ascending order — so replaying this log interleaved with others in
    global timestamp order (Section 5.2.2) remains correct.  Must not be
    called while a record is open. *)

(** One datum's freshest logged entry, as a volatile live index keeps
    it: the cell's address, value, commit timestamp and the block holding
    the entry.  [link] threads the cell into a {!live} set; a cell is in
    at most one set at a time. *)
type cell = {
  target : Addr.t;
  mutable value : int;
  mutable ts : int;
  mutable block : Addr.t;
  mutable link : cell;
}

val cell : target:Addr.t -> value:int -> ts:int -> block:Addr.t -> cell

type live
(** The live set handed to {!compact_indexed}: cells threaded through
    their own [link] fields, so building, sorting and rewriting it
    allocates nothing per entry.  Reusable: {!compact_indexed} empties
    it. *)

val live_create : unit -> live

val live_push : live -> cell -> unit
(** Add a cell to the front of the set. *)

val compact_indexed :
  ?keep_from:Addr.t -> t -> live:live -> compact_stats
(** Index-driven reclamation: rewrite the chain from a caller-supplied
    live set without scanning the old chain at all — O(live) copies
    instead of {!compact}'s O(log) scan.  The set is sorted in place by
    timestamp, stably, and written as one record per timestamp in
    ascending order, each record's entries in set order (the reverse of
    push order); every cell's [block] is set to the block its entry
    lands in, so the caller's index stays current.  The set is empty
    afterwards.  With [keep_from] (which must be a {!is_clean_start}
    block of the chain) only the prefix strictly older than that block
    is evacuated: [live] must then hold exactly the prefix's live
    entries, and the new chain is sealed into the retained suffix; a
    fully stale prefix (an empty set) is dropped with a single pointer
    persist and zero copies.  Crash safety is the same 2-fence splice as
    {!compact}: everything new persists with fence #1 while unreachable
    and becomes live only at the atomic head publish (fence #2).  Must
    not be called while a record is open. *)

val reset : t -> unit
(** Durably empty the log: persist an end-of-log sentinel at the head
    block's payload, sever its chain pointer, and recycle every other
    block.  After [reset] no scan from the head slot yields any record;
    the arena keeps appending into the (now empty) head block.  Used when
    the log's content has been persisted by other means and must not be
    replayed again (mechanism switch-out, Section 4.3.1).  Must not be
    called while a record is open. *)

(** {1 Epoch support (hardware SpecPMT, Section 5.2)} *)

val current_block : t -> Addr.t
(** The block new appends currently land in. *)

val seal_block : t -> unit
(** Force the next record to start in a fresh block, making the current
    position a block-aligned epoch boundary. *)

val drop_prefix : t -> keep_from:Addr.t -> int
(** Free every block strictly older than [keep_from] (which must be a
    block of the chain), switching the persistent head pointer atomically.
    Returns the number of blocks freed.  Used by epoch-based reclamation:
    start epochs on sealed block boundaries and drop the oldest epoch's
    blocks in the foreground with one pointer persist. *)

(** {1 Introspection}

    The per-block figures below are volatile accounting maintained by the
    arena (and rebuilt by {!attach}) — the inputs of the adaptive
    reclamation scheduler's pressure model. *)

val footprint : t -> int
(** Persistent bytes currently held by the chain. *)

val block_count : t -> int
(** Number of blocks in the chain. *)

val total_entries : t -> int
(** Entries currently recorded in the chain, live and stale alike (page
    records count one entry per page word). *)

val entries_in_block : t -> Addr.t -> int
(** Entries recorded in one chain block (0 for unknown blocks). *)

val chain : t -> Addr.t list
(** The chain's blocks, oldest first. *)

val iter_chain : t -> (Addr.t -> unit) -> unit
(** [f] on the chain's blocks, oldest first, without building
    {!chain}'s list. *)

val is_clean_start : t -> Addr.t -> bool
(** Whether the block's payload starts on a record boundary — only such
    blocks are legal {!compact_indexed} [keep_from] splice points, because
    no record spans into them. *)

val pm : t -> Pmem.t
(** The device the arena lives on. *)
