(** Incremental Step Pulse Programming: the program-and-verify loop used by
    production NAND. Each pulse raises VGS by a fixed step; after each
    pulse the threshold is verified against the target. ISPP converts the
    strongly bias-dependent FN speed into a tight, nearly
    one-step-per-pulse ΔVT staircase. *)

type config = {
  v_start : float;     (** first-pulse bias [V] *)
  v_step : float;      (** per-pulse increment [V] *)
  v_max : float;       (** abort bias [V] *)
  pulse_width : float; (** s *)
  target_dvt : float;  (** verify level [V] *)
}

val default : config
(** 12 V start, 0.5 V steps up to 20 V, 10 µs pulses, 2 V target. *)

type step = {
  pulse_index : int;
  vgs : float;
  dvt : float;      (** threshold shift after this pulse *)
  qfg : float;
}

type result = {
  steps : step list;       (** in pulse order *)
  passed : bool;           (** verify succeeded before hitting v_max *)
  pulses_used : int;
}

val run :
  ?config:config ->
  Program_erase.engine -> qfg0:float -> (result, string) Stdlib.result
(** Run the program-and-verify loop from the given initial charge on the
    engine's device, every pulse through {!Program_erase.apply_pulse} on
    that engine. Steps whose bias climbs past the surrogate's operating
    box (the default config tops out at 20 V) fall back to the exact
    solver automatically. *)

(** The staircase reading the ISPP property test checks a run through. *)
module For_testing : sig
  val dvt_per_pulse_tail : result -> float list
  (** ΔVT increments of the staircase after the first verify-visible
      pulse — in steady state each increment approaches [v_step] (the
      classic ISPP signature). *)
end
