(** Multi-level cell (MLC) operation: storing more than one bit per
    floating gate by programming to one of 2^bits threshold windows.
    Levels are targeted with ISPP (tight placement) and sensed against
    intermediate reference levels, exactly as production MLC NAND does.

    Level convention (2-bit example, Gray-coded so adjacent levels differ
    in one bit): level 0 = erased = "11", level 1 = "10", level 2 = "00",
    level 3 = "01". *)

type config = {
  bits : int;           (** bits per cell, >= 1 (1 = SLC, 2 = MLC, 3 = TLC) *)
  dvt_spacing : float;  (** threshold spacing between adjacent levels [V] *)
  dvt_first : float;    (** target ΔVT of level 1 [V] *)
  placement : float;    (** acceptable placement error around a target [V] *)
  ispp : Gnrflash_device.Ispp.config;  (** base ISPP settings (target overridden) *)
}

val default_mlc : config
(** 2 bits/cell, levels at 1.5 / 3.0 / 4.5 V with ±0.25 V placement. *)

val default_tlc : config
(** 3 bits/cell, 0.8 V spacing starting at 1.0 V. *)

val levels : config -> int
(** Number of threshold levels, [2^bits]. *)

val target_dvt : config -> level:int -> float
(** Programming target for a level ([0.] for the erased level 0).
    @raise Invalid_argument for a level out of range. *)

val gray_encode : int -> int
(** Standard binary-reflected Gray code. *)

val level_to_bits : config -> int -> int array
(** Bit pattern (msb first) stored by a level, Gray-coded. *)

(** The decoders the encoders are checked against; no program reads a
    stored level back. *)
module For_testing : sig
  val gray_decode : int -> int
  (** Inverse of {!gray_encode}. *)

  val bits_to_level : config -> int array -> int
  (** Inverse of {!level_to_bits}. @raise Invalid_argument on length
      mismatch. *)
end

val program_level :
  ?config:config -> Gnrflash_device.Program_erase.engine -> qfg0:float ->
  level:int -> (float * int, string) result
(** Program a cell of the engine's device (from charge [qfg0], normally
    erased) to the given level with ISPP targeting that level's window. Returns
    [(qfg_after, pulses_used)]. Level 0 is a no-op. Fails when ISPP cannot
    place the threshold. *)

val read_level : ?config:config -> Gnrflash_device.Fgt.t -> qfg:float -> int
(** Sense the stored level by comparing ΔVT against the midpoints between
    adjacent level targets. *)

val read_margin : config -> level:int -> float
(** Distance from a level's target to the nearest read reference [V] —
    shrinks as levels are packed more densely. *)
