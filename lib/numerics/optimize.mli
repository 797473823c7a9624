(** Derivative-free minimization, used for the paper's "future work"
    voltage/thickness/reliability optimization study. *)

val nelder_mead :
  ?scale:float ->
  (float array -> float) -> float array -> float array * float
(** [nelder_mead f x0] is the downhill-simplex method from initial point
    [x0] (initial simplex edge [scale], default [0.1] relative to each
    coordinate's magnitude, absolute [0.1] for zero coordinates). Returns
    the best vertex and its value after convergence (a spread of vertex
    values within [1e-10] of the best value's magnitude) or 2000
    iterations. *)
