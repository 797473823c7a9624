(** Program/erase charge-balance transient (paper Figures 4 and 5).

    The stored charge obeys [dQFG/dt = −A·(Jin − Jout)] with both current
    densities re-evaluated from equation (3) as the charge builds up. The
    dynamics approach the fixed point [Jin = Jout] asymptotically; following
    the paper we report [tsat] as the time where the normalized imbalance
    [(Jin − Jout)/(Jin + Jout)] first falls below 1 %.

    Failures are typed [Gnrflash_resilience.Solver_error.t] values. The
    ambient {!Gnrflash_resilience.Budget}
    ({!Gnrflash_resilience.Budget.with_budget}) bounds wall clock /
    function evaluations: the integrator and the root finders charge and
    poll it.

    {b Rate kernel.} Each solve hoists the device constants once ([Fgt.gcr],
    [Fgt.ct], [vs], [xto], [xco], [area] and both interfaces' FN [(A, B)])
    into one fused kernel that computes the two oxide fields, then both
    current densities, without allocating. The kernel reaches the
    integrator through {!Gnrflash_numerics.Ode.integrate}'s unboxed
    protocol, so no RHS or event evaluation boxes a float. The kernel serves the ODE
    right-hand side, the saturation event and every {!sample}. Its
    expressions are those of the unit-typed bodies of [Fgt.vfg], [Fgt.j_in],
    [Fgt.j_out] and [Fgt.charging_rate] operation for operation, so every
    value it returns is bit-identical to the [Fgt] path ([test/test_transient.ml]
    checks this by [Int64.bits_of_float] against an integration through
    [Fgt.dqfg_dt], [Fgt.j_in], [Fgt.j_out] and [Fgt.vfg]). Only the
    integrator's RHS calls count as [ode/rhs_eval]; the cold-start [h0]
    probe, the event and the samples do not. *)

type error = Gnrflash_resilience.Solver_error.t

type sample = {
  time : float;   (** s *)
  qfg : float;    (** stored charge [C] *)
  vfg : float;    (** floating-gate potential [V] *)
  j_in : float;   (** electron injection [A/m²] *)
  j_out : float;  (** electron extraction [A/m²] *)
}

type final = {
  tsat : float option;
  qfg_final : float;
  dvt_final : float;
  h_first : float option;
}
(** What {!pulse} returns: the fields of {!type-result} a pulse engine
    reads, without the trajectory. *)

type result = {
  samples : sample array;      (** trajectory, increasing time *)
  tsat : float option;         (** saturation time, if reached *)
  qfg_final : float;           (** charge at the end of integration *)
  dvt_final : float;           (** threshold shift at the end *)
  h_first : float option;      (** first accepted step size [s] — feed it
                                   back as [?h0] to warm-start a repeat of
                                   the same pulse *)
}

val run :
  ?qfg0:float -> ?h0:float ->
  Fgt.t -> vgs:float -> duration:float -> (result, error) Stdlib.result
(** Integrate the charge balance for [duration] seconds at constant [vgs]
    (positive = programming, negative = erase) from initial charge [qfg0]
    (default 0, the paper's assumption). Integration stops early at the
    saturation event, where [|Jin − Jout| / (Jin + Jout)] falls to the
    paper's 1%. The relative tolerance is [1e-8].

    [h0] is the initial trial step size; when omitted (the cold-start
    case) it is derived from the RHS scale at [t = 0] as
    [0.01·CT·(1+|VGS|)/|dQ/dt|] — small enough that the first trial stays
    inside the finite region of the FN exponential, so a nominal run has
    [ode/step_nan_shrink = 0]. Pass the previous pulse's
    {!field-h_first} to warm-start a repeated pulse
    ({!Program_erase.apply_pulse} does this automatically). *)

val pulse :
  ?qfg0:float -> ?h0:float ->
  Fgt.t -> vgs:float -> duration:float -> (final, error) Stdlib.result
(** {!run}'s solve without its trajectory or samples: the same integration
    by the same driver, with the same counters and budget behaviour,
    returning only the final state. Its [tsat], [qfg_final], [dvt_final]
    and [h_first] are bit-identical to {!run}'s for the same arguments
    ([test/test_transient.ml] checks this by [Int64.bits_of_float] over
    the paper box, and that both spend the same [ode/rhs_eval] count and
    fail with the same typed error under a spent budget). Every RHS and
    event evaluation writes into flat float records, and no trajectory is kept, so a solve
    allocates a small constant whatever its step count. It is recorded
    under the same [transient/run] span and [transient/solve] counter as
    {!run}. The pulse engine ({!Program_erase.apply_pulse}) and every
    caller that reads only the end state use it. *)

val initial_currents : Fgt.t -> vgs:float -> qfg:float -> float * float
(** [(Jin, Jout)] at a single operating point — the t = 0 comparison of
    Figure 4. *)

val saturation_charge :
  Fgt.t -> vgs:float -> (float, error) Stdlib.result
(** The fixed-point charge solving [Jin(q) = Jout(q)] directly by root
    finding — the "maximum charge that can be accumulated" of the paper,
    without running the transient. A Brent solve on the voltage-divider
    bracket [0, 1.05·q*], where [q*] is the charge that sets
    [VFG = VGS·XTO/(XTO + XCO)]: the exact fixed point when both oxides
    share FN coefficients (and [VS = 0]). When that bracket has no sign
    change (a tunnel barrier below the control one moves the fixed point
    past it) the bracket is expanded from [0, q*] by [bracket_root] and
    solved again. *)

val time_to_threshold_shift :
  ?qfg0:float -> Fgt.t -> vgs:float -> dvt:float -> max_time:float ->
  (float option, error) Stdlib.result
(** Programming time needed to move the threshold by [dvt] volts: the event
    time where [ΔVT(t) = dvt], or [None] if the target exceeds what the
    bias can reach within [max_time]. A start charge [qfg0] already at or
    past the target takes [Some 0.]. A target beyond the bias's fixed
    point (the rate at the start points away from it, or the rate at the
    target points back) answers [None] without integrating. *)
