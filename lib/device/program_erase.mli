(** Pulse-level program and erase operations built on {!Transient}.

    Failures are typed [Gnrflash_resilience.Solver_error.t] values; the
    ambient {!Gnrflash_resilience.Budget} bounds the underlying transient
    solve and any surrogate build. *)

type error = Gnrflash_resilience.Solver_error.t

type pulse = {
  vgs : float;       (** control-gate bias during the pulse [V] *)
  duration : float;  (** pulse width [s] *)
}

type outcome = {
  qfg_before : float;
  qfg_after : float;
  dvt_after : float;      (** threshold shift after the pulse [V] *)
  injected_charge : float;(** |ΔQFG| [C] — feeds the reliability model *)
  saturated : bool;       (** the Jin = Jout event fired inside the pulse *)
}

(** {1 Pulse engine} *)

type engine
(** The caller-owned pulse-caching state for one device. An engine holds,
    in precedence order:

    - the {!Pulse_surrogate} tables, one per [vgs], each built once its
      [vgs] has been asked for more than twice (a device pulsed once or
      twice never pays for a build), and capped at 32 tables. A build the
      ambient budget starves leaves the slot empty, and the [vgs]'s next
      consult retries it;
    - an exact-replay table: a pulse whose [(vgs, duration, qfg)] repeats
      bit-for-bit returns the memoized outcome, bit-identical to a
      re-solve since the solve is a pure function of that key (capped at
      64 entries);
    - the warm start: each polarity's last first accepted step size seeds
      the next exact solve's initial step.

    An engine's answers depend only on the pulses it has served, in
    order. Two engines never share state, so a fresh engine is a cold
    start. Not thread-safe: one engine per domain-local owner (a
    {!Gnrflash_memory.Cell_store}, one top-level {!Ispp.run}, a sweep
    element). *)

val engine : ?surrogate:bool -> Fgt.t -> engine
(** A cold engine for the device. [surrogate] (default [true]) lets
    in-box pulses be served from the certified tables: O(log n)
    interpolation with a table-certified divergence bound instead of an
    adaptive ODE solve, with transparent fallback to the exact path for
    anything a table cannot certify. Pass [~surrogate:false] for exact
    solver answers. *)

val apply_pulse :
  engine -> qfg:float -> pulse -> (outcome, error) result
(** Run one bias pulse on the engine's device from the given initial
    charge: surrogate table, else exact replay, else a warm-started exact
    solve (see {!type-engine}).

    Telemetry: [program_erase/pulse] (count and span) per pulse,
    [surrogate/{hit,fallback}] per surrogate consult, [surrogate/build]
    per table built, [program_erase/pulse_replay] per replay,
    [transient/warm_start_hit] per warm-started solve. *)

val memoizable : engine -> pulse -> bool
(** Whether a caller may memoize this pulse's outcome by starting charge
    and skip later consults: the duration is positive, and either the
    surrogate is off, the pulse lies outside the operating box (its
    consults never touch the promotion counters), or its [vgs] table slot
    is settled (built or unusable). Until then every
    pulse must reach {!apply_pulse}, or the table build would land on a
    different pulse. *)

val default_program_pulse : pulse
(** The paper's program pulse: VGS = 15 V for 1 ms. *)

val default_erase_pulse : pulse
(** VGS = −15 V for 1 ms. *)
