(** Read operation: the stored charge shifts the threshold seen from the
    control gate; the MLGNR channel conducts in the Landauer picture when
    the gate overdrive opens channels. *)

type config = {
  vt0 : float;         (** neutral (uncharged) threshold voltage [V] *)
  vread : float;       (** control-gate read bias [V] *)
  vds : float;         (** drain read bias [V] — the paper's 50 mV *)
  channel : Gnrflash_materials.Mlgnr.t;  (** MLGNR channel stack *)
  temp : float;        (** K *)
}

val default : config
(** VT0 = 1 V, VREAD = 3 V, VDS = 50 mV, 3-layer 12-AGNR channel, 300 K. *)

val threshold_voltage : config -> Fgt.t -> qfg:float -> float
(** [vt0 + ΔVT(qfg)]. *)

val read_current : config -> Fgt.t -> qfg:float -> float
(** Drain current [A] at the read point: 0 when the cell is cut off;
    otherwise [G_sheet·(W/L ≡ 1)·vds] with the Landauer sheet conductance
    of the MLGNR stack evaluated at a Fermi level proportional to the gate
    overdrive. *)
