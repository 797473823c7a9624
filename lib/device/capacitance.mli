(** The floating-gate capacitance network of paper equation (2):
    [CT = CFC + CFS + CFB + CFD] and the gate-coupling ratio
    [GCR = CFC / CT]. All capacitances in farads (per cell).

    The [_q] functions are the unit-typed primaries over
    {!Gnrflash_units.farad} quantities; the raw-float API is a thin
    bit-identical shim kept for the figure/CLI boundary. *)

type t = {
  cfc : float;  (** floating gate ↔ control gate *)
  cfs : float;  (** floating gate ↔ source *)
  cfb : float;  (** floating gate ↔ body *)
  cfd : float;  (** floating gate ↔ drain *)
}

val cfc_qty : t -> Gnrflash_units.farad Gnrflash_units.qty
val cfs_qty : t -> Gnrflash_units.farad Gnrflash_units.qty
val cfb_qty : t -> Gnrflash_units.farad Gnrflash_units.qty
val cfd_qty : t -> Gnrflash_units.farad Gnrflash_units.qty

val make_q :
  cfc:Gnrflash_units.farad Gnrflash_units.qty ->
  cfs:Gnrflash_units.farad Gnrflash_units.qty ->
  cfb:Gnrflash_units.farad Gnrflash_units.qty ->
  cfd:Gnrflash_units.farad Gnrflash_units.qty -> t
(** Build a network from typed capacitances. @raise Invalid_argument on a
    negative component or a zero total. *)

val total_q : t -> Gnrflash_units.farad Gnrflash_units.qty
(** Equation (2). *)

val total : t -> float
(** Raw shim over {!total_q}. *)

val gcr : t -> float
(** Gate-coupling ratio [CFC/CT], in (0, 1] — dimensionless. *)

val of_gcr_q : gcr:float -> cfc:Gnrflash_units.farad Gnrflash_units.qty -> t
(** Synthesize a network with the given [gcr] and control capacitance: the
    remaining capacitance [cfc·(1/gcr − 1)] is split between source, body
    and drain in the conventional 25/50/25 proportion. The split does not
    affect any paper quantity (only CT and CFC enter equations (2)–(3));
    it is recorded for completeness.
    @raise Invalid_argument unless [0 < gcr <= 1] and [cfc > 0]. *)

val parallel_plate_q :
  eps_r:float ->
  area:Gnrflash_units.m2 Gnrflash_units.qty ->
  thickness:Gnrflash_units.metre Gnrflash_units.qty ->
  Gnrflash_units.farad Gnrflash_units.qty
(** [ε₀·εᵣ·A/t] — derive a component from geometry. The area/thickness
    distinction is where the type layer pays off: swapping them no longer
    type-checks. *)

val with_quantum_capacitance_q :
  t -> cq:Gnrflash_units.farad Gnrflash_units.qty -> t
(** Ext E: the MLGNR floating gate's quantum capacitance [cq] in series
    with the control-gate coupling — returns a network whose [cfc] is
    [cfc·cq/(cfc + cq)], lowering the effective GCR. *)

val with_quantum_capacitance : t -> cq:float -> t
(** Raw shim over {!with_quantum_capacitance_q}. *)

(** Raw-float shims the tests drive {!make_q} and {!of_gcr_q} through. *)
module For_testing : sig
  val make : cfc:float -> cfs:float -> cfb:float -> cfd:float -> t
  (** Raw shim over {!make_q}. *)

  val of_gcr : gcr:float -> cfc:float -> t
  (** Raw shim over {!of_gcr_q}. *)
end
