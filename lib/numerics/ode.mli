(** Initial-value problem solvers.

    The adaptive solvers integrate a scalar equation [dy/dt = f t y]: every
    caller in the library evolves one state (the floating-gate charge).
    They fail with a typed [Gnrflash_resilience.Solver_error.t]
    ([Step_underflow], [Max_steps], [Nan_region], [Budget_exhausted], ...);
    RHS evaluations are charged against the ambient
    {!Gnrflash_resilience.Budget} and the budget is polled at step
    boundaries. The fixed-step baselines {!euler} and {!rk4} integrate
    systems with [float array] states; right-hand sides must not mutate
    their argument. *)

type error = Gnrflash_resilience.Solver_error.t

type 'a trajectory = {
  times : float array;  (** accepted step times, increasing *)
  states : 'a array;    (** [states.(i)] is the state at [times.(i)] *)
}

(* lint: allow L14 — no program calls it; test_ode pins it *)
val euler : f:(float -> float array -> float array) ->
  t0:float -> y0:float array -> t1:float -> steps:int -> float array trajectory
(** Fixed-step forward Euler ([steps] uniform steps). Mostly useful as a
    baseline in convergence tests. *)

(* lint: allow L14 — no program calls it; test_ode pins it *)
val rk4 : f:(float -> float array -> float array) ->
  t0:float -> y0:float array -> t1:float -> steps:int -> float array trajectory
(** Classical fixed-step 4th-order Runge–Kutta. *)

val rkf45 :
  ?rtol:float -> ?atol:float -> ?h0:float -> ?h_min:float -> ?max_steps:int ->
  f:(float -> float -> float) ->
  t0:float -> y0:float -> t1:float -> unit ->
  (float trajectory, error) result
(** Adaptive embedded Runge–Kutta with standard step control. The stepper
    is the FSAL Dormand–Prince 5(4) pair (an accepted step's last stage is
    reused as the next step's first, so a trial step costs 6 RHS
    evaluations; one extra evaluation seeds the integration and one re-seeds
    after each non-finite trial). The historical [rkf45] name is kept as a
    stable shim — callers and recorded telemetry keys are unchanged.
    [rtol] defaults to [1e-8], [atol] to [1e-12]. Fails if the step size
    underflows [h_min] or [max_steps] (default [200_000]) is exceeded.
    A non-finite trial state (NaN {e or} infinity) shrinks the step rather
    than being accepted.

    The driver keeps the state, the step and all seven stages in unboxed
    locals: a trial step allocates only the boxes of [f]'s arguments and
    result, and an accepted step adds only its trajectory slot. *)

(* lint: allow L14 — no program calls it; test_ode pins it *)
val rkf45_dense :
  ?rtol:float -> ?atol:float -> ?h0:float -> ?h_min:float -> ?max_steps:int ->
  f:(float -> float -> float) ->
  t0:float -> y0:float -> t1:float -> ts:float array -> unit ->
  (float trajectory * float array, error) result
(** Like {!rkf45} but additionally returns the solution sampled at the
    user-supplied times [ts] (sorted, within [t0, t1]) via the pair's
    native 4th-order dense-output interpolant — no extra RHS evaluations
    are spent on the samples (counted under [ode/dense_eval]). The
    interpolant's coefficients are computed only for steps that hold a
    sample. *)

type event_result = {
  trajectory : float trajectory; (** trajectory up to and including the event *)
  event_time : float option; (** time at which the event function crossed zero,
                                 or [None] if no crossing occurred before [t1] *)
  event_state : float option; (** state at the event time *)
}

val rkf45_event :
  ?rtol:float -> ?atol:float -> ?h0:float -> ?h_min:float -> ?max_steps:int ->
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
