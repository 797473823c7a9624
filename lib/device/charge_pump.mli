(** Dickson charge pump — the on-chip high-voltage generator that produces
    the 15–20 V programming bias from the chip supply (the SoC integration
    cost of FN programming the paper's venue cares about).

    Ideal-switch model with per-stage capacitor [c_stage], clock frequency
    [f_clk], diode drop [v_d] and load current [i_load]:
    [V_out = V_dd + N·(V_dd − V_d − I_load/(f·C)) − V_d]. *)

type t = {
  v_dd : float;       (** supply voltage [V] *)
  v_diode : float;    (** per-stage diode/switch drop [V] *)
  c_stage : float;    (** per-stage pump capacitance [F] *)
  f_clk : float;      (** pump clock [Hz] *)
  stages : int;
}

val make : v_dd:float -> stages:int -> t
(** A pump with a 0.3 V drop, 1 pF stages and a 20 MHz clock.
    @raise Invalid_argument for non-positive parameters. *)

val stages_for : ?margin:float -> t -> v_target:float -> i_load:float -> int
(** Minimum stage count reaching [v_target·(1+margin)] (margin default
    0.05) at the load, using the same per-stage parameters.
    @raise Invalid_argument if unreachable (per-stage gain <= 0). *)

val energy_per_program :
  t -> i_load:float -> pulse_width:float -> float
(** Energy drawn from the supply for one programming pulse [J]. *)

(** The closed form [test/test_charge_pump.ml] checks {!stages_for}
    against. No program calls it. *)
module For_testing : sig
  val output_voltage : t -> i_load:float -> float
  (** Open-circuit-to-loaded output voltage at the given DC load. *)
end
