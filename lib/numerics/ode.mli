(** Initial-value problem solvers.

    One integrator, the adaptive Dormand–Prince 5(4) pair ({!integrate}),
    solves a scalar equation [dy/dt = f t y]: every caller in the library
    evolves one state (the floating-gate charge). It fails with a typed
    [Gnrflash_resilience.Solver_error.t] ([Step_underflow], [Max_steps],
    [Nan_region], [Budget_exhausted], ...); RHS evaluations are charged
    against the ambient {!Gnrflash_resilience.Budget} and the budget is
    polled at step boundaries. *)

type error = Gnrflash_resilience.Solver_error.t

type trajectory = {
  times : float array;   (** accepted step times, increasing *)
  states : float array;  (** [states.(i)] is the state at [times.(i)] *)
}

(** {1 Unboxed right-hand-side protocol}

    The program entry of the one DOPRI5 driver, which the oracles
    {!For_testing.rkf45} and {!For_testing.rkf45_event} share, with a
    calling convention that passes no float through a closure call. A
    closure call is never inlined, so in native code a
    [float -> float -> float] right-hand side boxes both arguments and its
    result on every evaluation, whatever the build profile; here the
    driver writes the evaluation point into a flat float record, calls a
    [unit -> unit] closure, and reads the answer back from the record. *)

type io = {
  mutable t : float;   (** in: evaluation time *)
  mutable y : float;   (** in: evaluation state *)
  mutable dy : float;  (** out: [rhs ()] writes [dy/dt] at [(t, y)] here *)
  mutable g : float;   (** out: [event ()] writes the event value here *)
}

val io : unit -> io
(** A zeroed record. *)

type solution = {
  points : trajectory;
      (** the accepted points, as {!For_testing.rkf45} returns them;
          empty unless [~record:true] *)
  y_final : float;  (** state at the last point (the event's, if it fired) *)
  h_first : float option;
      (** the second point's time minus [t0] (the first accepted step, or
          the event time if the event fired inside it); [None] if no step
          was accepted *)
  t_event : float option;
      (** time at which the event crossed zero, or [None] if it did not
          before [t1] *)
  y_event : float option;  (** state at the event time *)
}

val integrate :
  ?rtol:float -> ?atol:float -> ?h0:float -> ?max_steps:int ->
  record:bool -> io -> rhs:(unit -> unit) -> event:(unit -> unit) option ->
  t0:float -> y0:float -> t1:float -> unit ->
  (solution, error) result
(** Adaptive integration of [dy/dt = f t y] from [(t0, y0)] to [t1] by the
    DOPRI5 pair described at {!For_testing.rkf45}, in the unboxed
    protocol: [rhs ()] must set [io.dy] from [io.t] and [io.y], and
    [event ()] must set [io.g]. An [event], when given, is monitored as
    {!For_testing.rkf45_event} describes: the first sign change across an
    accepted step (or an exact [0.]) is located by bisection on the step's
    dense output and integration stops there. Every evaluation counts as
    [ode/rhs_eval] and is charged to the ambient budget with
    [Budget.note_evals]; errors carry the solver name ["Ode.rkf45"]. The boxed oracles wrap this same driver, so every
    accepted point, [y_final], [h_first] and the event are bit-identical
    to theirs for the same functions. A trial step allocates nothing; with
    [~record:false] an accepted step allocates nothing either, so a whole
    integration allocates a small constant whatever its step count. *)

(** The boxed-float solvers, kept as oracles: [test/test_transient.ml]
    integrates the unit-typed reference path through them, and
    [test/test_ode.ml] pins the shared driver through them. No program
    calls them; {!integrate} is the driver's program entry. *)
module For_testing : sig
  val rkf45 :
    ?rtol:float -> ?atol:float -> ?h0:float -> ?max_steps:int ->
    f:(float -> float -> float) ->
    t0:float -> y0:float -> t1:float -> unit ->
    (trajectory, error) result
  (** Adaptive embedded Runge–Kutta with standard step control. The stepper
      is the FSAL Dormand–Prince 5(4) pair (an accepted step's last stage is
      reused as the next step's first, so a trial step costs 6 RHS
      evaluations; one extra evaluation seeds the integration and one re-seeds
      after each non-finite trial). [rtol] defaults to [1e-8], [atol] to [1e-12]. Fails if the step size
      underflows [1e-300] or [max_steps] (default [200_000]) is exceeded.
      A non-finite trial state (NaN {e or} infinity) shrinks the step rather
      than being accepted.

      It runs the driver of {!integrate} through a wrapper that boxes [f]'s
      arguments and result: a trial step allocates only those boxes, and an
      accepted step adds only its trajectory slot. *)

  type event_result = {
    trajectory : trajectory; (** trajectory up to and including the event *)
    event_time : float option; (** time at which the event function crossed zero,
                                   or [None] if no crossing occurred before [t1] *)
    event_state : float option; (** state at the event time *)
  }

  val rkf45_event :
    ?rtol:float -> ?atol:float -> ?h0:float -> ?max_steps:int ->
    f:(float -> float -> float) ->
    event:(float -> float -> float) ->
    t0:float -> y0:float -> t1:float -> unit ->
    (event_result, error) result
  (** Like {!rkf45} but additionally monitors [event t y]: when its sign
      changes across an accepted step — including landing exactly on [0.] —
      the crossing is located by bisection on the step's dense-output
      interpolant (pure polynomial evaluation, no RHS work; early exit once
      the time bracket is below a relative tolerance) and integration stops
      there. [event] is evaluated once per accepted step and once per
      bisection probe; it is not counted as an RHS evaluation. *)
end
