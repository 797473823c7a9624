(** Charge retention: with all terminals grounded the stored electrons leak
    back through the tunnel oxide by direct tunneling under the small
    self-induced field [VFG = QFG/CT]. Because the leakage spans many
    decades of time, integration proceeds on an exponentially growing time
    grid (quasi-static forward Euler, refined per decade). *)

type sample = {
  time : float;    (** s *)
  qfg : float;     (** remaining charge [C] *)
  dvt : float;     (** remaining threshold shift [V] *)
}

val simulate :
  ?temp:float -> Fgt.t -> qfg0:float -> t_start:float -> t_end:float ->
  sample array
(** Leakage trajectory from [t_start] to [t_end] seconds (log-spaced,
    16 points per decade). [qfg0] must be the programmed (negative)
    charge; [temp] scales an Arrhenius acceleration factor
    (activation 0.3 eV) applied to the leakage current, normalized to
    300 K. @raise Invalid_argument on non-negative [qfg0] or a bad time
    range. *)

val charge_loss_percent : Fgt.t -> qfg0:float -> after:float -> float
(** Percentage of stored charge lost after [after] seconds at 300 K. *)

val retention_time : ?temp:float -> Fgt.t -> qfg0:float -> criterion:float -> float
(** First time (s) at which the remaining charge fraction drops below
    [criterion] (e.g. 0.8); [infinity] if it never does within 100 years. *)
