(** The parameter sets the paper's evaluation figures use. *)

val phi_b_ev : float
(** Barrier height, 3.2 eV (Si/SiO₂ textbook value the paper's
    k-coefficients correspond to). *)

val m_ox_rel : float
(** Tunneling effective mass in SiO₂, 0.42 m₀. *)

val gcr_values : float list
(** The four coupling ratios of Figs 6 and 8: 45 %, 50 %, 55 %, 60 %. *)

val xto_values_nm : float list
(** The five tunnel-oxide thicknesses of Figs 7 and 9: 5–9 nm. *)

val xto_default_nm : float
(** 5 nm (paper Fig 8 caption: "XTO = 5"). *)

val gcr_default : float
(** 0.6, the worked example's value. *)

val vgs_program : float
(** 15 V programming bias. *)

val vgs_program_range : float * float
(** Fig 6 sweep: 8–17 V. *)

val vgs_program_range_xto : float * float
(** Fig 7 sweep: 10–17 V. *)

val vgs_erase_range : float * float
(** Figs 8/9 sweep: −17 … −8 V. *)

val sweep_points : int
(** Samples per J–V curve (60). *)

val device : unit -> Gnrflash_device.Fgt.t
(** A fresh paper-default device
    ({!Gnrflash_device.Fgt.paper_default}). *)

val fn : unit -> Gnrflash_quantum.Fn.params
(** FN coefficients at the paper's Φ_B and m_ox. *)
