(** Derivative-free minimization, used for the paper's "future work"
    voltage/thickness/reliability optimization study. *)

(* lint: allow L14 — no program calls it; test_optimize pins it *)
val golden_section :
  ?tol:float -> ?max_iter:int -> (float -> float) -> float -> float ->
  float * float
(** [golden_section f a b] minimizes a unimodal [f] on [[a, b]]; returns
    [(x_min, f x_min)]. *)

(* lint: allow L14 — no program calls it; test_optimize pins it *)
val grid_search_1d :
  n:int -> (float -> float) -> float -> float -> float * float
(** Exhaustive search over [n] evenly spaced points; returns the best
    [(x, f x)]. Useful as a robust pre-pass before a local method. *)

(* lint: allow L14 — no program calls it; test_optimize pins it *)
val grid_search_2d :
  nx:int -> ny:int -> (float -> float -> float) ->
  (float * float) -> (float * float) -> (float * float) * float
(** [grid_search_2d ~nx ~ny f (x0, x1) (y0, y1)] scans the rectangle and
    returns the best [((x, y), f x y)]. *)

val nelder_mead :
  ?tol:float -> ?max_iter:int -> ?scale:float ->
  (float array -> float) -> float array -> float array * float
(** [nelder_mead f x0] is the downhill-simplex method from initial point
    [x0] (initial simplex edge [scale], default [0.1] relative to each
    coordinate's magnitude, absolute [0.1] for zero coordinates). Returns
    the best vertex and its value after convergence ([tol] on the spread of
    vertex values, default [1e-10]) or [max_iter] iterations. *)

(* lint: allow L14 — no program calls it; test_optimize pins it *)
val minimize_penalized :
  penalty:(float array -> float) -> (float array -> float) ->
  float array -> float array * float
(** Convenience: Nelder–Mead on [fun x -> f x +. penalty x] — the standard
    way constraints are folded into the optimization examples. Returns the
    best point and the {e unpenalized} objective there. *)
