(** Fowler–Nordheim tunneling current density — the closed form the paper's
    equations (1), (4), (6), (7) are built on (Lenzlinger & Snow 1969).
    The oxide fields of eq (6) come from the floating-gate divider
    in [Fgt], not from here.

    [J = A·E²·exp(−B/E)] with
    [A = q³·m0 / (8π·h·m_ox·Φ_B)]  (A/V²) and
    [B = 8π·√(2 m_ox)·Φ_B^{3/2} / (3 q h)]  (V/m),
    Φ_B in joules inside the formulas, quoted in eV at the API.

    The [_q] entry points are the unit-typed primaries
    ({!Gnrflash_units}): barrier heights are [ev qty], fields [v_per_m
    qty], currents [a_per_m2 qty] — passing e.g. a [volt qty] where a
    field is expected fails to compile. The raw-float functions are thin
    boundary shims over them and return bit-identical values. *)

type params = {
  a : float;        (** prefactor A [A/V²] *)
  b : float;        (** exponent coefficient B [V/m] *)
  phi_b_ev : float; (** barrier height used to build the coefficients [eV] *)
  m_ox_rel : float; (** effective tunneling mass in units of m0 *)
}

val a_qty : params -> Gnrflash_units.fn_a Gnrflash_units.qty
(** The prefactor as a typed A/m² per (V/m)² quantity. *)

val b_qty : params -> Gnrflash_units.v_per_m Gnrflash_units.qty
(** The exponent coefficient as a typed field. *)

val coefficients_q :
  phi_b:Gnrflash_units.ev Gnrflash_units.qty -> m_ox_rel:float -> params
(** Build FN coefficients from a typed barrier height (eV — converted to
    joules internally via the one sanctioned
    {!Gnrflash_units.ev_to_joule} crossing) and relative effective mass.
    @raise Invalid_argument for non-positive arguments. *)

val coefficients : phi_b_ev:float -> m_ox_rel:float -> params
(** Raw-float shim over {!coefficients_q}.
    @raise Invalid_argument for non-positive arguments. *)

val of_interface : Gnrflash_materials.Workfunction.electrode ->
  Gnrflash_materials.Oxide.t -> params
(** Coefficients for a given electrode/oxide interface, deriving Φ_B from
    the work function and electron affinity, and m_ox from the oxide. *)

val current_density_q :
  params -> field:Gnrflash_units.v_per_m Gnrflash_units.qty ->
  Gnrflash_units.a_per_m2 Gnrflash_units.qty
(** Current density at an oxide field; [0.] for non-positive fields (the
    formula describes forward injection only — callers handle polarity). *)

val current_density : params -> field:float -> float
(** Raw shim over {!current_density_q}: [A/m²] at [field] [V/m]. *)
