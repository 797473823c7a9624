(** Program/erase cycling with wear feedback: per-cycle injected charge
    accumulates oxide fluence; trap generation drifts the neutral
    threshold; the cell fails when the oxide breaks or the program/erase
    window closes. *)

type cycle_sample = {
  cycle : int;
  vt_programmed : float;   (** programmed-state threshold [V] *)
  vt_erased : float;       (** erased-state threshold [V] *)
  window : float;          (** program/erase window [V] *)
  fluence : float;         (** cumulative oxide fluence [C/m²] *)
}

type run = {
  samples : cycle_sample list;   (** log-spaced observation points *)
  cycles_survived : int;
  failure : string option;       (** [None] if the cycle budget completed *)
}

val cycle_cell :
  ?reliability:Gnrflash_device.Reliability.model ->
  ?program_pulse:Gnrflash_device.Program_erase.pulse ->
  ?erase_pulse:Gnrflash_device.Program_erase.pulse ->
  ?window_min:float ->
  ?surrogate:bool ->
  Gnrflash_device.Fgt.t -> cycles:int -> run
(** Cycle a single cell [cycles] times, sampling the thresholds at
    log-spaced cycle counts (1, 2, 3, 5, 10, 20, ... and [cycles]). Stops
    early on oxide breakdown or when the window falls below [window_min]
    (default 1 V). The run owns one cold pulse engine, so its result
    depends only on its arguments. [surrogate] (default on) serves in-box
    pulses from the {!Gnrflash_device.Pulse_surrogate} tables — the
    intended fleet-scale cycling path; pass [false] to force every pulse
    through the exact ODE solve.

    Each cycle is one {!Cell_store.pe_cycle} call on a one-cell store, and
    the next checkpoint is an index into an int array, so once the cell
    settles into its two-state limit cycle a cycle allocates nothing; only
    a checkpoint builds a sample. The thresholds are
    [Cell.For_testing.effective_vt] of the cell, bit for bit
    ([test/test_endurance.ml] checks every sample, [cycles_survived] and
    [failure] against that record-path loop). *)

val predicted_endurance :
  ?reliability:Gnrflash_device.Reliability.model ->
  Gnrflash_device.Fgt.t -> vgs:float -> float
(** Closed-form endurance estimate: the charge-to-breakdown at the tunnel
    field of an uncharged gate at [vgs], divided by the per-cycle fluence
    [2·|q_sat(vgs) − q_sat(−vgs)|] of a cycle whose pulses saturate (each
    swings the charge from one saturation charge to the other), as in a
    {!cycle_cell} run. [test/test_endurance.ml] checks it against a
    simulated breakdown to 1% and one cycle. [0.] when either saturation
    charge cannot be found. *)
