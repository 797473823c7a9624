(** Certified O(1) surrogate for the constant-bias pulse response.

    The charge-balance transient [dQFG/dt = f(QFG)] at fixed [vgs] is
    {e autonomous}: every pulse at the same bias moves along the {e same}
    trajectory [q(t)], only entering it at a different point. One dense
    solve per (device, vgs) therefore collapses the (qfg, duration) axes:

    {v qfg' = Q(T(qfg) + duration)     where T = Q⁻¹ v}

    A table stores the accepted-step samples of that single trajectory as a
    pair of monotone PCHIP interpolants ([t_of_q] and [q_of_t]), so an
    in-domain query is two O(log n) interpolant evaluations instead of an
    adaptive ODE integration.

    {b Certification contract.} [build] holds out every other accepted
    sample: knots come from the even-indexed samples, and the odd-indexed
    ones become probe points that are never interpolation nodes. The
    build measures the worst {!divergence} of the composed query
    [Q(T(q_i) + (t_j − t_i))] against the held-out exact samples [q_j]
    (plus direct [q_of_t] probes and the saturated tail), and publishes
    [certified_bound = 3 × measured + 2e-6] — headroom for operating
    points between probes and for independent solver-tolerance noise.
    {!query} answers are guaranteed (and property-tested) to stay within
    the bound; anything the table cannot certify returns [None] and the
    caller falls back to the exact solver.

    This module is the pure table code. Which tables exist, when they are
    built and which pulses they serve is decided by the caller-owned
    {!Program_erase.type-engine}, which counts [surrogate/hit] per served
    query and [surrogate/fallback] per consulted query that could not be
    served. [build] itself counts [surrogate/build] (count + span). *)

type error = Gnrflash_resilience.Solver_error.t

(** {1 Operating box} *)

type box = {
  vgs_abs_min : float;   (** V *)
  vgs_abs_max : float;   (** V *)
  gcr_min : float;
  gcr_max : float;
  xto_min : float;       (** m *)
  xto_max : float;       (** m *)
  duration_min : float;  (** s *)
  duration_max : float;  (** s — also the build's integration horizon *)
}

val paper_box : box
(** The paper's operating range (Figs 5–9): |VGS| ∈ [8, 17] V,
    GCR ∈ [0.45, 0.60], XTO ∈ [5, 9] nm, durations 1 ns … 0.1 s. *)

val in_box : ?box:box -> Fgt.t -> vgs:float -> duration:float -> bool
(** Whether a pulse on this device is inside the (default paper) box.
    Boundary values are inside; device parameters are compared with a tiny
    relative slack so a device {e constructed} at a box corner (whose GCR
    round-trips through the capacitance network) still qualifies. *)

(** {1 Tables} *)

type t
(** One tabulated trajectory: a single (device, vgs) pair. *)

val build : ?box:box -> Fgt.t -> vgs:float -> (t, error) result
(** Solve the trajectory once over [box.duration_max] starting from
    [−1.5 × q_sat] (covering the overshoot range that program/erase
    cycling visits) and certify the table against the
    held-out samples. Runs under [Tel.span "surrogate/build"] and the
    ambient {!Gnrflash_resilience.Budget}. Errors are the underlying
    solver's ([saturation_charge] or the transient integration, including
    [Budget_exhausted]), or [Invalid_input] when the trajectory is
    degenerate. *)

val qfg_range : t -> float * float
(** [(q_lo, q_hi)] — initial charges the table serves. The saturated end
    stops strictly {e before} the event charge, so every in-range query
    still has the saturation event ahead of it. *)

val divergence : t -> exact:float -> approx:float -> float
(** The certification metric: [|approx − exact| / max(|exact|, 1e-3·q_scale)]
    where [q_scale] is the table's charge range. The floor keeps the metric
    meaningful when an erase trajectory crosses [qfg = 0] (where a plain
    relative error blows up on physically negligible absolute error). The
    tests use {e this} function, so the measured and enforced quantities
    are identical by construction. *)

type response = {
  qfg_after : float;
  saturated : bool;  (** the Jin = Jout event lies within the pulse *)
}

val query : t -> qfg:float -> duration:float -> response option
(** Serve one pulse from the table: [None] if [qfg] is outside
    {!qfg_range}, the duration is non-positive, or the pulse runs past an
    unsaturated table's horizon. Monotone PCHIP interpolation preserves
    "longer pulse moves at least as much charge". *)

(** Table inspection and trajectory-time readers the golden-pin tests check
    a built table through; the served path only calls {!query}. *)
module For_testing : sig
  val certified_bound : t -> float
  (** The published relative-divergence bound (see {!divergence}). *)

  val max_measured_divergence : t -> float
  (** The raw held-out measurement the bound was derived from. *)

  val vgs : t -> float
  val knot_count : t -> int

  val saturation_time : t -> qfg:float -> float option
  (** Time from charge [qfg] to the saturation event (the Fig 5 [tsat] when
      [qfg = 0]); [None] out of range or if the table never saturates. *)

  val time_to_charge : t -> qfg0:float -> qfg1:float -> float option
  (** Trajectory time from [qfg0] to [qfg1] (the Fig 5 [ttts] when [qfg1]
      is the 2 V-shift charge); [None] if either end is out of range. *)
end
