(** Per-operation energy accounting: the system-level comparison of FN and
    channel-hot-electron programming that motivates the paper's Section II
    ("FN requires < 1 nA per cell … allowing many cells to be programmed
    at a time"). Combines the cell currents with the charge-pump supply
    model. *)

type op_energy = {
  cell_energy : float;    (** energy delivered into the cell [J] *)
  supply_energy : float;  (** energy drawn from V_dd via the pump [J] *)
  pump_stages : int;
}

val fn_program_energy :
  Gnrflash_device.Fgt.t -> vgs:float -> pulse_width:float -> op_energy
(** Energy of one FN programming pulse: cell current is the tunneling
    current integrated over the transient; a pump fed from 1.8 V is sized
    for [vgs] at that load. *)

val che_program_energy :
  drain_current:float -> vds:float -> vgs:float -> pulse_width:float ->
  op_energy
(** Energy of one channel-hot-electron pulse: dominated by the drain
    current flowing for the whole pulse. *)

val page_program_comparison :
  cells:int -> (string * float) list
(** Total supply energy to program a page of [cells] cells with each
    mechanism — the headline FN-vs-CHE table ([(label, joules)]). *)
