(** Process-variation analysis: Monte-Carlo sampling of device parameters
    (tunnel-oxide thickness, barrier height, coupling ratio) and their
    impact on programming speed and threshold placement. Deterministic
    given the seed. The exponential field dependence of FN tunneling makes
    the cell extremely sensitive to XTO — quantified here. *)

type spread = {
  sigma_xto : float;    (** oxide-thickness σ [m], e.g. 1–2 Å *)
  sigma_phi : float;    (** barrier-height σ [eV] *)
  sigma_gcr : float;    (** coupling-ratio σ (absolute) *)
}

val default_spread : spread
(** σ(XTO) = 0.1 nm, σ(Φ_B) = 0.05 eV, σ(GCR) = 0.01. *)

type sample = {
  xto : float;
  phi_b_ev : float;
  gcr : float;
  program_time : float;   (** time to ΔVT = 2 V at 15 V [s]; [infinity] if unreached *)
  dvt_fixed_pulse : float;(** ΔVT after a fixed 100 ns pulse [V] *)
  solve_failed : bool;    (** a transient solve returned [Error] for this device *)
  failure : Gnrflash_resilience.Solver_error.t option;
                          (** the first typed solver error, when [solve_failed] *)
}

val perturbed :
  ?spread:spread -> seed:int -> index:int -> base:Fgt.t -> unit -> Fgt.t
(** The device drawn for ensemble slot [index] — the same perturbation
    {!sample_devices} would evaluate, without evaluating it. Lets other
    ensembles (e.g. endurance cycling) share the variation model and its
    chunking-independent seeding. *)

val sample_devices :
  ?spread:spread -> ?seed:int -> ?jobs:int ->
  base:Fgt.t -> n:int -> unit -> sample array
(** Draw [n] devices around [base] with independent Gaussian parameter
    perturbations (Box–Muller from a seeded PRNG) and evaluate each.
    Sample [i] seeds its own PRNG from [Sweep.splitmix ~seed ~index:i], so
    the ensemble is identical for every [jobs] (and chunking) setting;
    [jobs] (default {!Gnrflash_parallel.Sweep.default_jobs}) spreads the
    transient solves across the persistent domain pool.
    @raise Invalid_argument if [n < 1]. *)

type summary = {
  n : int;
  n_failed : int;          (** samples whose transient solve errored *)
  t_prog_median : float;
  t_prog_p95 : float;      (** 95th percentile programming time *)
  t_prog_spread : float;   (** p95 / p5 ratio — decades of speed spread *)
  dvt_mean : float;
  dvt_sigma : float;       (** σ of the fixed-pulse threshold placement *)
  failed_by_class : (string * int) list;
  (** failed solves bucketed by [Solver_error] class label
      (e.g. [("bracket_failure", 2); ("budget_exhausted", 1)]), sorted by
      label; empty when nothing failed *)
}

val summarize : sample array -> (summary, string) result
(** Robust statistics over the ensemble: failed solves are counted in
    [n_failed] and excluded — with every non-finite value — from the
    percentiles and moments. Returns [Error] (instead of raising, per lint
    rule L1) when no sample has a finite programming time — an ensemble
    where every solve failed is a data condition, not a programming bug. *)

val sensitivity_xto : Fgt.t -> float
(** d(log10 t_prog)/d(XTO) in decades per nm at the base point, by a
    central difference of ±0.05 nm — the headline sensitivity (one
    ångström of oxide moves programming time by [~0.1×this] decades). *)
