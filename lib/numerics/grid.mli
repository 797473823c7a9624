(** Construction of one-dimensional sampling grids.

    All functions return freshly-allocated arrays; callers may mutate the
    result freely. *)

val linspace : float -> float -> int -> float array
(** [linspace a b n] is [n] evenly spaced points from [a] to [b] inclusive.
    [n] must be at least 2 (use [[|a|]] yourself for a single point).
    @raise Invalid_argument if [n < 2]. *)

val logspace : float -> float -> int -> float array
(** [logspace e0 e1 n] is [n] points spaced evenly on a base-10 logarithmic
    scale, from [10.**e0] to [10.**e1] inclusive.
    @raise Invalid_argument if [n < 2]. *)

val geomspace : float -> float -> int -> float array
(** [geomspace a b n] is [n] points spaced geometrically from [a] to [b]
    inclusive. Both endpoints must be strictly positive.
    @raise Invalid_argument if [n < 2] or an endpoint is non-positive. *)
