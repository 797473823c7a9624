(** Fowler–Nordheim tunneling current density — the closed form the paper's
    equations (1), (4), (6), (7) are built on (Lenzlinger & Snow 1969).
    The oxide fields of eq (6) come from the floating-gate divider
    in [Fgt], not from here.

    [J = A·E²·exp(−B/E)] with
    [A = q³·m0 / (8π·h·m_ox·Φ_B)]  (A/V²) and
    [B = 8π·√(2 m_ox)·Φ_B^{3/2} / (3 q h)]  (V/m),
    Φ_B in joules inside the formulas, quoted in eV at the API.

    Each quantity has one raw-float entry point; its body is written over
    the unit-typed {!Gnrflash_units} quantities (barrier heights [ev qty],
    fields [v_per_m qty], currents [a_per_m2 qty]), so passing e.g. a
    [volt qty] where a field is expected fails to compile inside this
    module. *)

type params = {
  a : float;        (** prefactor A [A/V²] *)
  b : float;        (** exponent coefficient B [V/m] *)
  phi_b_ev : float; (** barrier height used to build the coefficients [eV] *)
  m_ox_rel : float; (** effective tunneling mass in units of m0 *)
}

val coefficients : phi_b_ev:float -> m_ox_rel:float -> params
(** Build FN coefficients from a barrier height [eV] (converted to joules
    through the one sanctioned {!Gnrflash_units.ev_to_joule} crossing) and
    a relative effective mass.
    @raise Invalid_argument for non-positive arguments. *)

val of_interface : Gnrflash_materials.Workfunction.electrode ->
  Gnrflash_materials.Oxide.t -> params
(** Coefficients for a given electrode/oxide interface, deriving Φ_B from
    the work function and electron affinity, and m_ox from the oxide. *)

val current_density : params -> field:float -> float
(** Current density [A/m²] at an oxide field [V/m]; [0.] for
    non-positive fields (the formula describes forward injection only —
    callers handle polarity). *)
