(** Monolayer graphene electronic properties in the linear (Dirac)
    approximation. Energies in joules unless stated otherwise. *)

(* lint: allow L14 — no program calls it; test_graphene pins it *)
val dispersion : float -> float
(** [dispersion k] is the conduction-band energy [ħ·v_F·k] at wavevector
    [k] [1/m]. *)

(* lint: allow L14 — no program calls it; test_graphene pins it *)
val density_of_states : float -> float
(** [density_of_states e] is the 2D DOS per unit area per joule at energy
    [e] measured from the Dirac point: [2|e| / (π ħ² v_F²)]. *)

(* lint: allow L14 — no program calls it; test_graphene pins it *)
val carrier_density : ef:float -> t:float -> float
(** Net carrier density [1/m²] (electrons minus holes) at Fermi level [ef]
    (joules, relative to the Dirac point) and temperature [t]. At [t = 0]
    this is the analytic [ef²/(π ħ² v_F²)·sign(ef)]; at finite temperature
    it is evaluated by quadrature. *)

val quantum_capacitance : ef:float -> t:float -> float
(** Quantum capacitance per unit area [F/m²]:
    [Cq = 2 q² kT / (π (ħ v_F)²) · ln(2(1 + cosh(ef/kT)))]. For [t = 0] the
    degenerate limit [2 q² |ef| / (π (ħ v_F)²)] is used. The floating-gate
    model puts this in series with the geometric capacitances (Ext E). *)

(* lint: allow L14 — no program calls it; test_graphene pins it *)
val fermi_level_for_density : n:float -> t:float -> float
(** Inverse of {!carrier_density}: the Fermi level [J] producing net density
    [n] [1/m²] at temperature [t], found by bracketing + Brent. *)
