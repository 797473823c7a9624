(** A page-mapping flash translation layer over a multi-block device:
    out-of-place updates, greedy garbage collection and wear-aware
    allocation — the firmware layer that turns the erase-before-write
    device of this library into a rewritable address space.

    The FTL tracks page state and per-block erase counts (metadata
    simulation, the standard methodology for FTL studies); the underlying
    per-cell physics lives in {!Cell_store} (see {!Nand_block} and
    {!Command_fsm}). The physical operations each host call performs
    are journaled (see {!journal}) so a command-level front end
    ({!Service}) can replay the exact op stream against a behavioral
    device model.

    A handle is mutable and has one owner; every operation updates it in
    place. Garbage collection (GC) relocates a victim's valid pages only
    after checking that they fit — in what is left of the open block plus
    [pages_per_block] pages per fully-free block — so a GC run never fails
    part-way. A write that ends in [Device_full] rolls back every GC run it
    made, from an undo image allocated at {!create}: the state and the
    journal are exactly as before the call. Only a run that retires its
    victim can end a write there, so the image is filled only while a
    live block is within [gc_threshold + 1] erases of [endurance_limit]. *)

type page_state =
  | Free
  | Valid of int   (** holds this logical page *)
  | Invalid        (** superseded data awaiting garbage collection *)

type t

type config = {
  blocks : int;          (** physical blocks *)
  pages_per_block : int;
  gc_threshold : int;    (** trigger GC when free pages drop to this *)
  endurance_limit : int; (** erases after which a block is retired *)
}

type error =
  | Out_of_range of int  (** logical page number outside the capacity *)
  | Device_full          (** no space the allocator can actually consume *)

val error_to_string : error -> string

(** One physical operation, in device order. [gc] distinguishes
    relocations performed by garbage collection from host-initiated
    programs. *)
type phys_op =
  | Phys_program of { block : int; page : int; lpn : int; gc : bool }
  | Phys_erase of { block : int; retired : bool }

(** The journal of physical operations, held in place as append-only int
    columns: entry [i], for [i < length], is [block.(i)], [page.(i)],
    [lpn.(i)] and [flag.(i)]. A program has [page >= 0] and [flag = 1]
    for a GC relocation; an erase has [page = lpn = -1] and [flag = 1]
    when it retired the block. The columns grow by doubling and never
    shrink, so a warm handle journals without allocating; a rollback
    restores only [length]. Read-only outside this module: a front end
    walks the entries straight out of the columns, with no call per
    entry. The arrays may be replaced when an entry is appended, so read
    them through the record, not through a saved copy. *)
type journal = private {
  mutable length : int;
  mutable block : int array;
  mutable page : int array;
  mutable lpn : int array;
  mutable flag : int array;
}

val default_config : config
(** 16 blocks × 64 pages, GC at 8 free pages, 10⁴-erase endurance. *)

val create : config -> t
(** Fresh, fully-free device. @raise Invalid_argument on non-positive
    dimensions or a GC threshold that can never be satisfied. *)

val logical_capacity : t -> int
(** Logical pages exposed: 7/8 of the physical pages excluding one
    reserved block — the over-provisioning that guarantees garbage
    collection always has room to relocate a victim's valid pages. *)

val free_pages : t -> int
(** Free physical pages over non-retired blocks (includes pages the
    allocator cannot reach; see {!writable}). O(1): a total kept up to
    date by every program and erase, which {!check_invariants} recounts
    from the page map. *)

val fully_free_blocks : t -> int
(** Fully-free non-open blocks — the garbage collector's headroom. O(1),
    like {!free_pages}: a kept total of fully-free live blocks, less the
    open block when it is itself fully free. *)

val writable : t -> bool
(** Whether the allocator can place one more page right now: the open
    block has room, or a fully-free block exists to open. This — not
    [free_pages t > 0] — is the predicate space accounting must use;
    free pages stranded in partially-written non-open blocks are
    unusable until their block is collected. *)

val ensure_space : t -> (unit, error) result
(** Run GC until a fully-free reserve block exists and the free-page
    low-water mark is respected, or accept the state as-is when nothing
    more is reclaimable but the allocator still has room ([Ok] implies
    {!writable}). [Error Device_full] when a write cannot be placed; [t]
    is then left as it was. *)

val write_in_place : t -> lpn:int -> (unit, error) result
(** Write (or rewrite) a logical page, running GC first when free space
    is low. Fails with [Device_full] when out of usable space or
    [Out_of_range] for a bad logical page number; [Error] leaves [t]
    unchanged. *)

val trim_in_place : t -> lpn:int -> unit
(** Discard a logical page (marks its physical page invalid). *)

val journal : t -> journal
(** The live journal: the physical operations performed since creation
    or the last {!clear_journal} / {!take_journal}, in chronological
    device order. A rejected write leaves no entries. Allocates
    nothing. *)

val clear_journal : t -> unit
(** Drop every journal entry (keeping the columns' capacity). *)

val take_journal : t -> phys_op list
(** The {!journal} entries as a list, built on demand, in chronological
    device order; clears the journal. A rejected write leaves no
    entries. *)

val read : t -> lpn:int -> (int * int) option
(** Physical [(block, page)] currently holding the logical page, if
    written. *)

val location : t -> lpn:int -> int
(** {!read} as one flat page index, [block * pages_per_block + page], or
    [-1] when the page is unwritten or [lpn] out of range. Allocates
    nothing. *)

val check_invariants : t -> (unit, string) result
(** Structural self-check: the logical-to-physical mapping and the page
    state array agree in both directions (no aliasing), the per-block
    Free/Invalid counts and the two space totals behind {!free_pages} and
    {!fully_free_blocks} equal a recount of the page map, the write point
    is sane, [device_writes >= host_writes], and the erase counter equals
    the per-block sum. [Error] carries a description of the first
    violation found; the description is formatted only then, so a
    passing check allocates next to nothing. *)

type stats = {
  host_writes : int;      (** pages written by the host *)
  device_writes : int;    (** pages physically programmed (incl. GC copies) *)
  gc_runs : int;
  erases : int;
  retired_blocks : int;
  write_amplification : float;  (** device_writes / host_writes *)
  max_erase_count : int;
  min_erase_count : int;        (** over all blocks, retired included — on a
                                    fully-retired device this is the
                                    endurance limit, not 0 *)
}

val stats : t -> stats
(** Counters since creation. *)

val wear_spread : t -> float
(** Max minus min block erase count — flatness of the wear-leveling.
    0 on a fully-retired device (every block wore out at the same
    endurance limit). *)

val run_trace : t -> Workload.op list -> (unit, error) result
(** Replay a workload trace: writes map to {!write_in_place} (page index
    modulo the logical capacity), reads are metadata no-ops. Stops at the
    first error. *)

(** Test-only construction of out-of-policy device states — e.g. a
    crash-recovery snapshot where the write point was lost and free pages
    are stranded mid-block — which the normal write/trim path can never
    reach but space accounting must still handle. *)
module For_testing : sig
  val of_state :
    config:config ->
    ?erase_counts:int array ->
    pages:page_state array array ->
    write_point:(int * int) option ->
    unit ->
    t
  (** Build a device from an explicit page-state map; the
      logical-to-physical mapping is derived from the [Valid] cells, and
      block retirement from [erase_counts] (default all-zero) against the
      endurance limit.
      @raise Invalid_argument on dimension mismatch, negative erase
      counts, out-of-range or duplicate logical page numbers. *)

  val set_free_totals : t -> free_total:int -> fully_free:int -> unit
  (** Overwrite the two space totals behind {!free_pages} and
      {!fully_free_blocks} (the open block counted in [fully_free]), to
      build a state {!check_invariants} must refuse. *)

  val columns : t -> (string * int array) list
  (** A copy of every column of the handle, by name ([retired] as 0/1,
      and the write point, the counters and the two space totals as one
      ["scalars"] row), so a test can compare whole states. *)
end
