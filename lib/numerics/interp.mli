(** Interpolation of tabulated data.

    All constructors require [xs] strictly increasing and
    [Array.length xs = Array.length ys >= 2]; they raise [Invalid_argument]
    otherwise. Evaluation outside the knot range extrapolates using the
    boundary segment. *)

type t
(** An interpolant built from tabulated data. *)

(* lint: allow L14 — no program calls it; test_interp pins it *)
val linear : float array -> float array -> t
(** Piecewise-linear interpolant. *)

val pchip : float array -> float array -> t
(** Monotone piecewise-cubic Hermite interpolant (Fritsch–Carlson slopes):
    preserves monotonicity of the data, never overshoots. *)

val eval : t -> float -> float
(** Evaluate the interpolant. *)

(* lint: allow L14 — no program calls it; test_interp pins it *)
val eval_array : t -> float array -> float array
(** Map {!eval} over an array of abscissae. *)

(* lint: allow L14 — no program calls it; test_interp pins it *)
val knots : t -> float array * float array
(** The [(xs, ys)] the interpolant was built from. *)
