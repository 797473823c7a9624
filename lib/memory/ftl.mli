(** A page-mapping flash translation layer over a multi-block device:
    out-of-place updates, greedy garbage collection and wear-aware
    allocation — the firmware layer that turns the erase-before-write
    device of this library into a rewritable address space.

    The FTL tracks page state and per-block erase counts (metadata
    simulation, the standard methodology for FTL studies); the underlying
    per-cell physics lives in {!Cell_store} (see {!Nand_block} and
    {!Command_fsm}). The physical operations each host call performs
    are journaled (see {!phys_op}) so a command-level front end
    ({!Service}) can replay the exact op stream against a behavioral
    device model. *)

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
  | No_victim            (** internal: GC found nothing to collect *)
  | No_free_block        (** internal: allocator found no fully-free block *)

val error_to_string : error -> string

(** One physical operation, in device order. [gc] distinguishes
    relocations performed by garbage collection from host-initiated
    programs. *)
type phys_op =
  | Phys_program of { block : int; page : int; lpn : int; gc : bool }
  | Phys_erase of { block : int; retired : bool }

val default_config : config
(** 16 blocks × 64 pages, GC at 8 free pages, 10⁴-erase endurance. *)

val create : config -> t
(** Fresh, fully-free device. @raise Invalid_argument on non-positive
    dimensions or a GC threshold that can never be satisfied. *)

val config : t -> config

val logical_capacity : t -> int
(** Logical pages exposed: 7/8 of the physical pages excluding one
    reserved block — the over-provisioning that guarantees garbage
    collection always has room to relocate a victim's valid pages. *)

val free_pages : t -> int
(** Free physical pages over non-retired blocks (includes pages the
    allocator cannot reach; see {!writable}). *)

val fully_free_blocks : t -> int
(** Fully-free non-open blocks — the garbage collector's headroom. *)

val writable : t -> bool
(** Whether the allocator can place one more page right now: the open
    block has room, or a fully-free block exists to open. This — not
    [free_pages t > 0] — is the predicate space accounting must use;
    free pages stranded in partially-written non-open blocks are
    unusable until their block is collected. *)

val ensure_space : t -> (t, error) result
(** Run garbage collection until a fully-free reserve block exists and
    the free-page low-water mark is respected, or accept the state as-is
    when nothing is reclaimable but the allocator still has room.
    [Error Device_full] when a write cannot be placed. *)

val write : t -> lpn:int -> (t, error) result
(** Write (or rewrite) a logical page. Triggers garbage collection when
    free space is low. Fails with [Device_full] when out of usable space
    or [Out_of_range] for a bad logical page number. *)

val read : t -> lpn:int -> (int * int) option
(** Physical [(block, page)] currently holding the logical page, if
    written. *)

(** {2 In-place variants}

    For callers that use an FTL handle {e linearly} — one owner, every
    update applied to the same handle, no retained snapshots
    ({!Service}'s hot loop). They observe exactly the semantics of
    {!write}/{!trim}/{!drain_journal} (same allocation decisions, GC
    runs, journal streams and rollback on failure — a part-way GC
    failure leaves the handle untouched) but mutate the handle instead
    of copying it, so an accepted write without a GC run costs zero
    copies. Mixing them with retained snapshots of the same handle is
    unsupported: earlier copies obtained from the persistent functions
    stay valid, but values sharing state with [t] (e.g. the pre-drain
    half of {!drain_journal}) are invalidated by an in-place update. *)

val write_in_place : t -> lpn:int -> (unit, error) result
(** {!write}, mutating [t]. [Error] leaves [t] unchanged. *)

val trim_in_place : t -> lpn:int -> unit
(** {!trim}, mutating [t]. *)

val take_journal : t -> phys_op list
(** {!drain_journal}, clearing [t]'s journal in place. *)

val trim : t -> lpn:int -> t
(** Discard a logical page (marks its physical page invalid). *)

val drain_journal : t -> t * phys_op list
(** Physical operations performed since creation or the last drain, in
    chronological device order, and the device with an emptied journal.
    Discarded intermediate states (e.g. a garbage collection attempt that
    failed part-way) leave no journal entries. *)

val check_invariants : t -> (unit, string) result
(** Structural self-check: the logical-to-physical mapping and the page
    state array agree in both directions (no aliasing), the write point
    is sane, [device_writes >= host_writes], and the erase counter equals
    the per-block sum. [Error] carries a description of the first
    violation found. *)

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

val run_trace : t -> Workload.op list -> (t, error) result
(** Replay a workload trace: writes map to {!write} (page index modulo the
    logical capacity), reads are metadata no-ops. *)

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
end
