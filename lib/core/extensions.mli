(** Extension experiments beyond the paper's figures: the ablations and
    optimization study its conclusion/future-work section calls for
    (experiment ids Ext A–F in DESIGN.md). *)

(** {1 Ext A: model accuracy} *)

val model_comparison :
  ?fields_mv_cm:float array -> unit -> (string * (float * float) array) list
(** Current density vs field for each transmission model (FN closed form,
    Tsu–Esaki over WKB / transfer-matrix / exact-Airy transmission), at the
    paper's barrier. Returns [(model, [(E in MV/cm, J in A/cm²)])]. *)

val model_figure : unit -> Gnrflash_plot.Figure.t
(** {!model_comparison} as a semilog figure. *)

(** {1 Ext B: design-space optimization} *)

type design_point = {
  gcr : float;
  xto_nm : float;
  program_time : float;    (** time to ΔVT = 2 V at VGS = 15 V [s] *)
  peak_field : float;      (** peak tunnel-oxide field [V/m] *)
  endurance : float;       (** predicted cycles to breakdown *)
  feasible : bool;         (** peak field below oxide breakdown *)
}

val evaluate_design : gcr:float -> xto_nm:float -> design_point
(** Evaluate one (GCR, XTO) candidate. *)

val optimize_design : unit -> design_point * design_point list
(** Grid-scan the 6 × 6 design rectangle GCR 0.45–0.7 × XTO 4–9 nm and
    return the fastest feasible design that still sustains ≥ 10⁴
    predicted cycles, plus all evaluated points. *)

(** {1 Ext C: retention} *)

val retention_curve :
  ?dvt0:float -> unit -> Gnrflash_plot.Figure.t * float
(** Remaining threshold shift vs log-time from 1 ms to 10 years for a cell
    programmed to [dvt0] (default 2 V), and the 10-year charge-loss
    percentage. *)

(** {1 Ext D: endurance} *)

val endurance_curve :
  ?cycles:int -> ?surrogate:bool -> unit -> Gnrflash_plot.Figure.t * int
(** Program/erase window vs cycle count, and the number of cycles
    survived. [surrogate] (default on) is threaded through to the
    per-pulse {!Gnrflash_device.Pulse_surrogate} serving path. *)

type endurance_ensemble_summary = {
  cells : int;
  survived_all : int;    (** cells that completed the full cycle budget *)
  cycles_min : int;
  cycles_median : int;
  cycles_max : int;
}

val endurance_ensemble :
  ?cells:int -> ?cycles:int -> ?seed:int -> ?surrogate:bool ->
  ?jobs:int -> unit -> endurance_ensemble_summary
(** Cycle an ensemble of [cells] (default 16) variation-perturbed devices
    for up to [cycles] (default 1000) program/erase cycles each and
    summarize the survival distribution. Cell [i]'s device comes from
    {!Gnrflash_device.Variation.perturbed}[ ~seed ~index:i], so the
    ensemble is identical for every [jobs] (in-process domains) setting —
    this is the fleet-scale-endurance entry point behind the CLI's
    [endurance --ensemble N --jobs J].
    @raise Invalid_argument if [cells < 1]. *)

(** {1 Ext E: quantum-capacitance correction} *)

val qcap_comparison : layers:int list -> (int * float * float) list
(** For each MLGNR layer count: [(layers, GCR without correction, effective
    GCR with the stack's quantum capacitance in series)]. Fewer layers →
    smaller Cq → larger GCR reduction. *)

val qcap_jv_figure : unit -> Gnrflash_plot.Figure.t
(** Programming J–V with and without the quantum-capacitance correction
    for a 1-layer and a 5-layer floating gate. *)

(** {1 Ext F: NAND block demo} *)

type nand_summary = {
  pages_written : int;
  verify_failures : int;
  disturb_dvt_max : float;   (** worst threshold drift on inhibited cells [V] *)
  mean_pulses : float;       (** average ISPP pulses per programmed page *)
}

val nand_page_demo : ?pages:int -> ?strings:int -> unit -> (nand_summary, string) result
(** Program a checkerboard pattern across a small {!Gnrflash_memory.Nand_block}
    and report verify/disturb statistics. *)

(** {1 Ext K: retention after cycling} *)

val retention_after_cycling : unit -> (int * float * float) list
(** For each P/E cycle count 0, 100, 10³ and 10⁴: [(cycles, trap
    density 1/m², 10-year leakage-current multiplier)]. Cycling generates oxide traps (via the
    reliability model); traps open the SILC path that multiplies the
    low-field leakage — the standard post-cycling retention failure. *)

(** {1 Ext L: MLC error budget} *)

val mlc_error_budget : unit -> Gnrflash_memory.Ber.analysis list
(** The BER pipeline evaluated at the threshold-placement spreads 0.05,
    0.1, 0.2, 0.3, 0.45 and 0.6 V. *)

(** {1 Ext M: temperature bake} *)

val bake_test :
  ?dvt0:float -> unit -> (float * float) list * float
(** Retention bake: for each temperature [K] (300/358/398/438 K —
    25/85/125/165 °C), the time [s] for a [dvt0]-programmed cell (default
    2 V) to lose 20 % of its charge; plus the activation energy [eV]
    extracted from the Arrhenius plot [ln t vs 1/kT] by least squares.
    Tests pin the extracted Ea against the retention model's built-in
    0.3 eV. *)

(** {1 Ext N: ID-VG read window} *)

val id_vg_figure : ?dvt_programmed:float -> unit -> Gnrflash_plot.Figure.t
(** Transfer curves of the read transistor in the erased and programmed
    states (semilog-y) — the window a sense amplifier discriminates. *)
