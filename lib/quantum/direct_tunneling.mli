(** Direct tunneling through a trapezoidal barrier — the transport channel
    for ultra-thin oxides (2–5 nm) and the leakage mechanism that limits
    retention. WKB closed form:

    [J = A·E²·exp(−B·(1 − (1 − qV_ox/Φ_B)^{3/2}) / E)]   for qV_ox < Φ_B,

    smoothly reducing to Fowler–Nordheim when the oxide drop exceeds the
    barrier height. [A] and [B] are the FN coefficients of the interface. *)

val current_density :
  Fn.params -> v_ox:float -> thickness:float -> float
(** Current density [A/m²] for a potential drop [v_ox] (volts, >= 0) across
    an oxide of the given [thickness] (m). Returns [0.] for [v_ox <= 0.].
    For [v_ox >= Φ_B/q] this is exactly {!Fn.current_density} at the same
    field. *)
