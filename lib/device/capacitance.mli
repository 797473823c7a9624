(** The floating-gate capacitance network of paper equation (2):
    [CT = CFC + CFS + CFB + CFD] and the gate-coupling ratio
    [GCR = CFC / CT]. All capacitances in farads (per cell).

    Each quantity has one exported name. {!make}, {!of_gcr} and
    {!parallel_plate_q} work in typed {!Gnrflash_units} quantities;
    {!total} and {!gcr} return raw floats but sum the same typed
    components inside, so every formula here is dimension-checked. *)

type t = {
  cfc : float;  (** floating gate ↔ control gate *)
  cfs : float;  (** floating gate ↔ source *)
  cfb : float;  (** floating gate ↔ body *)
  cfd : float;  (** floating gate ↔ drain *)
}

val cfc_qty : t -> Gnrflash_units.farad Gnrflash_units.qty
(** The control-gate coupling [cfc] as a typed capacitance. *)

val make :
  cfc:Gnrflash_units.farad Gnrflash_units.qty ->
  cfs:Gnrflash_units.farad Gnrflash_units.qty ->
  cfb:Gnrflash_units.farad Gnrflash_units.qty ->
  cfd:Gnrflash_units.farad Gnrflash_units.qty -> t
(** Build a network from typed capacitances. @raise Invalid_argument on a
    negative component or a zero total. *)

val total : t -> float
(** Equation (2): [CT] [F]. *)

val gcr : t -> float
(** Gate-coupling ratio [CFC/CT], in (0, 1] — dimensionless. *)

val of_gcr : gcr:float -> cfc:Gnrflash_units.farad Gnrflash_units.qty -> t
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

val with_quantum_capacitance : t -> cq:float -> t
(** Ext E: the MLGNR floating gate's quantum capacitance [cq] [F] in
    series with the control-gate coupling — returns a network whose [cfc]
    is [cfc·cq/(cfc + cq)], lowering the effective GCR.
    @raise Invalid_argument unless [cq > 0]. *)
