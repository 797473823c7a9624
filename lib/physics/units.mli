(** Unit conversions used throughout the library.

    Internal convention: all physics code works in SI (metres, volts, amps,
    joules, seconds, farads). These helpers convert at the API boundary —
    device dimensions are naturally quoted in nm, energies in eV, fields in
    MV/cm and current densities in A/cm². *)

(** {1 Length} *)

val nm : float -> float
(** Nanometres → metres. *)

val to_nm : float -> float
(** Metres → nanometres. *)

(** {1 Energy} *)

val ev_to_joule : float -> float
(** Electron-volts → joules. *)

val joule_to_ev : float -> float
(** Joules → electron-volts. *)

(** {1 Electric field} *)

val mv_per_cm : float -> float
(** MV/cm → V/m (1 MV/cm = 1e8 V/m). *)

(** {1 Current density} *)

val to_a_per_cm2 : float -> float
(** A/m² → A/cm². *)

(** {1 Time} *)

val years : float -> float
(** Years → seconds (Julian year, 365.25 days). *)
