(** Over-erase management: the symmetric erase pulse drives the floating
    gate past neutral (ΔVT < 0), which in a NOR array turns the cell into
    an always-on leaker that masks every other cell on its bit line. The
    standard firmware fix — modeled here — is erase-verify followed by
    soft programming: short, low-bias program pulses that nudge
    over-erased cells back above the erase-verify level without
    re-programming them. *)

type config = {
  verify_low : float;    (** ΔVT floor; cells below are over-erased [V] *)
  verify_high : float;   (** soft programming must stay below this [V] *)
  soft_vgs : float;      (** soft-program bias (well below program bias) [V] *)
  soft_width : float;    (** per-pulse width [s] *)
  max_pulses : int;
}

val default : config
(** Window [−0.5, +0.5] V, 10 V / 1 µs soft pulses, 32-pulse budget. *)

val is_over_erased : ?config:config -> Cell.t -> bool
(** True when the stored ΔVT is below the verify floor. *)

val recover :
  ?config:config -> Gnrflash_device.Program_erase.engine -> Cell.t ->
  (Cell.t * int, string) result
(** Soft-program an over-erased cell back into the verify window, every
    pulse through the engine (one for the cell's device). Returns
    the recovered cell and the pulses used; fails if the budget is
    exhausted or a pulse overshoots [verify_high]. Cells already in the
    window are returned unchanged with 0 pulses. *)
