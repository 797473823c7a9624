(** Tunnel-oxide wear — the reliability concern the paper's conclusion
    raises ("higher tunneling current will severely damage the oxide's
    reliability").

    Phenomenology: every coulomb of Fowler–Nordheim charge fluence through
    the oxide generates traps; breakdown occurs at a charge-to-breakdown
    [Q_BD] that shrinks exponentially with the oxide field (the E-model),
    and accumulated traps shift the neutral threshold and accelerate
    leakage. *)

type model = {
  qbd0 : float;        (** charge-to-breakdown extrapolated to zero field [C/m²] *)
  e0 : float;          (** field-acceleration constant [V/m] *)
  trap_per_charge : float; (** generated traps per injected electron *)
  dvt_per_trap : float;    (** threshold drift per areal trap density [V·m²] *)
}

val default : model
(** SiO₂-like numbers: [Q_BD] ≈ 10⁶ C/m² at 8 MV/cm falling ~10× per
    2 MV/cm; 10⁻⁵ traps per electron. *)

type wear = {
  fluence : float;       (** cumulative injected charge [C/m²] *)
  traps : float;         (** areal trap density [1/m²] *)
  cycles : int;          (** completed P/E cycles *)
  broken : bool;         (** oxide has reached Q_BD *)
}

val fresh : wear
(** Zero wear. *)

val qbd : model -> field:float -> float
(** Charge-to-breakdown at the given oxide field [C/m²]. *)

val after_pulse : model -> wear -> injected:float -> area:float -> field:float -> wear
(** Update wear with one pulse's injected charge (C, over the given cell
    area) at the given peak oxide field. *)

val endurance_cycles : model -> charge_per_cycle:float -> area:float -> field:float -> float
(** Predicted number of P/E cycles before breakdown at a constant
    per-cycle fluence. *)

(** The drift oracle {!Gnrflash_memory.Cell.For_testing.effective_vt}
    composes; the cycle kernel repeats its expression in place. *)
module For_testing : sig
  val vt_drift : model -> wear -> float
  (** Neutral-threshold drift caused by trapped charge [V]:
      [dvt_per_trap *. traps]. *)
end
