(** Trap-assisted tunneling (TAT) — the stress-induced leakage current
    (SILC) mechanism that dominates retention loss after program/erase
    cycling: electrons hop through oxide traps created by the tunneling
    stress, in two sequential (shorter) tunneling steps.

    Model: a trap at depth [x_t] and energy [e_t] below the oxide
    conduction band splits the barrier in two; the two-step rate is
    limited by the slower step,
    [J_TAT ∝ N_t · min(T_in, T_out)], with each step evaluated by WKB
    through its sub-barrier. The prefactor is calibrated so a fresh oxide
    (N_t = N_T0) reproduces a small fraction of the direct-tunneling
    current. *)

type trap = {
  depth_fraction : float;  (** trap position as a fraction of the oxide, (0, 1) *)
  energy_ev : float;       (** trap level below the oxide conduction band [eV] *)
}

val mid_gap_trap : trap
(** The canonical SILC trap: mid-oxide, ~2.6 eV below the conduction
    band. *)

val step_transmissions :
  Fn.params -> trap -> v_ox:float -> thickness:float -> float * float
(** WKB transmissions of the capture (emitter → trap) and emission
    (trap → collector) steps at a given oxide drop [v_ox].
    @raise Invalid_argument for non-positive [thickness] or [v_ox]. *)

val current_density :
  Fn.params -> trap_density:float -> v_ox:float -> thickness:float -> float
(** TAT current density [A/m²] for an areal trap density [1/m²] of
    {!mid_gap_trap}s.
    Scales linearly with [trap_density]; returns [0.] for [v_ox <= 0.]. *)

val silc_ratio :
  Fn.params -> trap_density:float -> v_ox:float -> thickness:float -> float
(** [J_TAT / J_direct] at the same bias — how much the cycling-generated
    traps multiply low-field leakage (the quantity that degrades retention
    with cycling). *)
