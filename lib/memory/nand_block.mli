(** A NAND flash block — [pages] word lines × [strings] bit lines, with
    page-granular ISPP program and block-granular FN erase, the
    organisation the paper targets ("FN tunneling is adopted in NAND
    flash") — over one {!Cell_store}: cell [(page, s)] lives at index
    [page * strings + s].

    Program keeps the charge-only semantics of the ISPP loop (wear is
    charged by erase pulses); erase goes through
    {!Cell_store.apply_pulse_range} with a block-lifetime erase memo, so
    charges and wear stay bit-identical to per-cell {!Cell.erase}. The
    block is mutated in place. A failing operation stops at the first
    error: cells already updated keep their new state, the operation is
    not counted in {!stats}. *)

type stats = {
  programs : int;
  erases : int;
  reads : int;
  program_failures : int;   (** ISPP exhausted its voltage range *)
  disturb_events : int;     (** inhibited-cell exposures accumulated *)
}

type t

val create :
  ?ispp:Gnrflash_device.Ispp.config ->
  ?disturb:Gnrflash_device.Disturb.config ->
  Gnrflash_device.Fgt.t -> pages:int -> strings:int -> t
(** Fresh block of erased cells over one shared device record. Defaults:
    {!Gnrflash_device.Ispp.default} and the VGS/2 inhibit scheme at the
    ISPP start voltage. @raise Invalid_argument for non-positive
    dimensions. *)

val strings : t -> int
(** Bit lines (cells per page). *)

val program_page : t -> page:int -> data:int array -> (unit, string) result
(** Program the page to [data] (1 bit per string; 0 = program the cell,
    1 = leave erased). Programmed cells run the ISPP loop; inhibited cells
    on the same word line then see one disturb exposure per ISPP pulse
    used, applied as a single transient of that many pulse widths at the
    inhibit bias. @raise Invalid_argument on a bad page or a data-length
    mismatch. *)

val erase_block : t -> (unit, string) result
(** Erase every cell of the block with the default erase pulse. *)

val read_page : t -> page:int -> int array
(** Sense the page through {!Cell.read} (1 = erased); bumps the read
    counter. @raise Invalid_argument on a bad page. *)

val verify_page : t -> page:int -> data:int array -> bool
(** True when the page reads back as [data]; not counted as a read. *)

val dvt : t -> page:int -> string_:int -> float
(** Threshold shift of one cell. @raise Invalid_argument on bad
    coordinates. *)

val stats : t -> stats
(** Operation counts since [create]. *)

val wear_summary : t -> float * float * int
(** (mean cycles, max fluence [C/m²], broken-cell count) over the block. *)
