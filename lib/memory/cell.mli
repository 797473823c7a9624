(** A flash cell: one floating-gate transistor plus its stored state and
    wear. The paper's logic convention is used throughout: electrons on the
    floating gate (positive ΔVT) = programmed = logic '0'; depleted =
    erased = logic '1'. *)

type logic =
  | Programmed  (** logic '0' *)
  | Erased      (** logic '1' *)

type t = {
  device : Gnrflash_device.Fgt.t;
  qfg : float;                        (** stored charge [C] *)
  wear : Gnrflash_device.Reliability.wear;
}

val make : ?qfg:float -> Gnrflash_device.Fgt.t -> t
(** Fresh cell (default neutral charge, zero wear). *)

val dvt : t -> float
(** Threshold shift of the stored state. *)

val to_bit : logic -> int
(** [Programmed → 0], [Erased → 1]. *)

val program :
  ?pulse:Gnrflash_device.Program_erase.pulse ->
  ?reliability:Gnrflash_device.Reliability.model ->
  Gnrflash_device.Program_erase.engine ->
  t -> (t, string) result
(** Apply a program pulse through the engine, which must be one for the
    cell's device, updating charge and wear. Fails on a broken oxide. *)

val erase :
  ?pulse:Gnrflash_device.Program_erase.pulse ->
  ?reliability:Gnrflash_device.Reliability.model ->
  Gnrflash_device.Program_erase.engine ->
  t -> (t, string) result
(** Apply an erase pulse through the engine, updating charge and wear. *)

val read : ?config:Gnrflash_device.Readout.config -> t -> logic
(** Sense the cell through the readout model (current comparison against
    half the neutral on-current). *)

(** The scalar readout oracles the store's kernels are checked against. *)
module For_testing : sig
  val state : ?dvt_threshold:float -> t -> logic
  (** Classify the stored state by its threshold shift (default decision
      level 1 V). *)

  val effective_vt : ?config:Gnrflash_device.Readout.config ->
    ?reliability:Gnrflash_device.Reliability.model -> t -> float
  (** Threshold including both stored charge and wear-induced drift —
      the quantity whose program/erase window closes with cycling.
      {!Cell_store.run_cycles} computes it in place, bit for bit. *)
end
