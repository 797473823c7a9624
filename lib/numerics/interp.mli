(** Interpolation of tabulated data.

    {!pchip} requires [xs] strictly increasing and
    [Array.length xs = Array.length ys >= 2]; it raises [Invalid_argument]
    otherwise. Evaluation outside the knot range extrapolates using the
    boundary segment. *)

type t
(** An interpolant built from tabulated data. *)

val pchip : float array -> float array -> t
(** Monotone piecewise-cubic Hermite interpolant (Fritsch–Carlson slopes):
    preserves monotonicity of the data, never overshoots. *)

val eval : t -> float -> float
(** Evaluate the interpolant. *)
