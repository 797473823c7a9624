(** Monolayer graphene electronic properties in the linear (Dirac)
    approximation. Energies in joules unless stated otherwise. *)

val quantum_capacitance : ef:float -> t:float -> float
(** Quantum capacitance per unit area [F/m²]:
    [Cq = 2 q² kT / (π (ħ v_F)²) · ln(2(1 + cosh(ef/kT)))]. For [t = 0] the
    degenerate limit [2 q² |ef| / (π (ħ v_F)²)] is used. The floating-gate
    model puts this in series with the geometric capacitances (Ext E). *)
