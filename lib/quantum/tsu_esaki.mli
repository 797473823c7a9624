(** Tsu–Esaki tunneling current: transmission × supply-function integral,

    [J = (q·m_e·kT / 2π²ħ³) ∫ T(E)·N(E) dE],

    the "more accurate model" the paper's future-work section calls for.
    [T(E)] may come from WKB, the transfer matrix, or the exact Airy
    solution. *)

type transmission_model =
  | Wkb_model
  | Transfer_matrix_model of int (** staircase steps *)
  | Exact_airy
(** Which T(E) evaluator to plug into the integral. *)

val current_density :
  ?model:transmission_model -> ?temp:float ->
  phi_b:float -> field:float -> thickness:float -> m_b:float ->
  ef:float -> unit -> float
(** [current_density ~phi_b ~field ~thickness ~m_b ~ef ()] is the net
    current density [A/m²] through a barrier of entry height [phi_b] (J)
    tilted by [field] (V/m) across [thickness] (m), with emitter Fermi
    level [ef] (J above the emitter band edge). The oxide potential drop
    sets the supply-function bias. [temp] defaults to 300 K, [model] to
    {!Wkb_model}.

    The WKB model always evaluates through {!Wkb.Cache}: the
    piecewise-linear barrier's per-segment closed-form action
    coefficients are computed once per call ([wkb/cache_build]) and
    shared across all quadrature nodes ([wkb/cache_hit] each), replacing
    one adaptive-Simpson recursion per node. *)
