(** Axis scales: mapping data coordinates to the unit interval, and tick
    generation. *)

type kind =
  | Linear
  | Log10  (** requires strictly positive data *)

type t

val make : kind -> lo:float -> hi:float -> t
(** Build a scale over the data range [[lo, hi]]. Degenerate ranges are
    padded; log scales clamp [lo] to a positive value.
    @raise Invalid_argument if [hi < lo], or for a log scale with
    [hi <= 0.]. *)

val kind : t -> kind
val bounds : t -> float * float
(** The (possibly padded) data range. *)

val project : t -> float -> float
(** Map a data value into [[0, 1]] (clamped). *)

val ticks : t -> float array
(** "Nice" tick positions, about six of them: 1-2-5 progression for linear
    scales, powers of ten for log scales. *)

val tick_label : t -> float -> string
(** Compact label for a tick value ([1e-3]-style for log scales and
    magnitudes beyond ±10⁴). *)
