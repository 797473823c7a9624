(** The MLGNR–CNT floating gate transistor: geometry, capacitive coupling
    (paper equation (3)) and the two Fowler–Nordheim injection paths.

    Sign conventions: [qfg] is the stored floating-gate charge in coulombs
    (negative after programming — electrons). Currents are reported as the
    {e electron} fluxes the paper plots: [j_in] is electron injection into
    the FG, [j_out] electron extraction, both non-negative current
    densities [A/m²].

    Each quantity has one exported name. {!make} takes typed
    {!Gnrflash_units} lengths and an area; the physics takes and returns
    raw floats, but its bodies are written over typed volts, metres,
    coulombs and A/m² inside this module, so every formula is
    dimension-checked. *)

type t = {
  caps : Capacitance.t;     (** the equation-(2) network *)
  area : float;             (** tunnel-oxide (cell) area [m²] *)
  xto : float;              (** tunnel-oxide thickness [m] *)
  xco : float;              (** control-oxide thickness [m] *)
  tunnel_fn : Gnrflash_quantum.Fn.params;
  (** FN coefficients of the channel ↔ FG interface *)
  control_fn : Gnrflash_quantum.Fn.params;
  (** FN coefficients of the FG ↔ control-gate interface *)
  vs : float;               (** source bias during operations [V], usually 0 *)
}

val make :
  ?vs:Gnrflash_units.volt Gnrflash_units.qty ->
  ?control_oxide:Gnrflash_materials.Oxide.t ->
  gcr:float ->
  xto:Gnrflash_units.metre Gnrflash_units.qty ->
  xco:Gnrflash_units.metre Gnrflash_units.qty ->
  area:Gnrflash_units.m2 Gnrflash_units.qty -> unit -> t
(** Build a device. Thicknesses are [metre qty] and the cell area an
    [m2 qty] (e.g. [U.area (U.metre 32e-9) (U.metre 32e-9)]), so swapping
    an area for a thickness does not type-check. The stack follows the
    paper: an SiO₂ tunnel oxide, and an MLGNR channel and CNT-contacted
    floating gate that both see the textbook Si/SiO₂-like 3.2 eV barrier
    (a 4.1 eV electrode work function); [vs] defaults to 0.
    [control_oxide] (default SiO₂, like the tunnel oxide) sets the FG ↔
    control-gate stack: both the blocking FN barrier ([control_fn]) and
    the [cfc] parallel-plate permittivity come from it, so a high-k
    blocking dielectric changes [j_out] without touching the channel-side
    [j_in]. [gcr] fixes the capacitance network via
    {!Capacitance.of_gcr} with [cfc] from the control-oxide parallel
    plate. @raise Invalid_argument for non-physical geometry. *)

val paper_default : t
(** The device of the paper's worked example: GCR = 0.6, XTO = 5 nm,
    XCO = 10 nm, area = (32 nm)², Φ_B = 3.2 eV, m_ox = 0.42 m0. *)

val with_gcr : t -> float -> t
(** Same device with the coupling ratio replaced (Figs 6, 8 sweeps). *)

val with_xto : t -> float -> t
(** Same device with the tunnel-oxide thickness replaced (Figs 7, 9). *)

val gcr : t -> float
(** The device's gate-coupling ratio. *)

val ct : t -> float
(** Total capacitance CT [F]. *)

val vfg : t -> vgs:float -> qfg:float -> float
(** Paper equation (3): [VFG = GCR·VGS + QFG/CT]. *)

val tunnel_field : t -> vgs:float -> qfg:float -> float
(** Signed field across the tunnel oxide, [(VFG − VS)/XTO] [V/m];
    positive drives electrons from the channel into the FG. *)

val j_in : t -> vgs:float -> qfg:float -> float
(** Electron injection into the floating gate [A/m²]: FN through the
    tunnel oxide when the tunnel field is positive, plus FN from the
    control gate when the control field is negative. *)

val j_out : t -> vgs:float -> qfg:float -> float
(** Electron extraction from the floating gate [A/m²]: FN to the control
    gate when the control field is positive, plus FN back to the channel
    when the tunnel field is negative. *)

val threshold_shift : t -> qfg:float -> float
(** Threshold-voltage shift seen from the control gate,
    [ΔVT = −QFG/CFC] — positive after programming. *)

val qfg_for_threshold_shift : t -> dvt:float -> float
(** Inverse of {!threshold_shift}. *)

val charging_rate : t -> vgs:float -> vfg:float -> float
(** Net charging rate [C/s] with the floating gate at potential [vfg]:
    [−area·(Jin − Jout)] (eqs (6)–(7)), both oxide fields taken from
    [vfg]. At [vfg = vfg t ~vgs ~qfg] it is the transient's [dQFG/dt];
    {!Qcap} passes a band-filling-corrected potential instead. *)

(** The per-call physics that the fused {!Gnrflash_device.Transient}
    kernel is checked against bit for bit. *)
module For_testing : sig
  val control_field : t -> vgs:float -> qfg:float -> float
  (** Signed field across the control oxide, [(VGS − VFG)/XCO]; positive
      drives electrons from the FG toward the control gate. *)

  val dqfg_dt : t -> vgs:float -> qfg:float -> float
  (** Net charging rate [C/s] at charge [qfg]: {!charging_rate} at the
      eq-(3) potential (electron influx makes the stored charge more
      negative). *)
end
