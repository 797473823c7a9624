(** Physical constants, CODATA 2018 exact/recommended values, SI units. *)

val q : float
(** Elementary charge [C] (exact). *)

val h : float
(** Planck constant [J·s] (exact). *)

val hbar : float
(** Reduced Planck constant [J·s]. *)

val m0 : float
(** Electron rest mass [kg]. *)

val k_b : float
(** Boltzmann constant [J/K] (exact). *)

val eps0 : float
(** Vacuum permittivity [F/m]. *)

val ev : float
(** One electron-volt in joules (numerically equal to {!q}). *)

val v_fermi_graphene : float
(** Fermi velocity of graphene, ≈ 1×10⁶ m/s. *)

val t_hopping : float
(** Nearest-neighbour tight-binding hopping energy of graphene [J]
    (≈ 2.7 eV). *)

val room_temperature : float
(** 300 K. *)
