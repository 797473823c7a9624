(** A labelled data series for plotting. *)

type t = {
  label : string;
  points : (float * float) array;
}

val make : label:string -> (float * float) array -> t
(** Build a series; points are copied. *)

val filter : ((float * float) -> bool) -> t -> t
(** Keep only matching points (e.g. positive values before a log plot). *)

val ys : t -> float array
(** The ordinates. *)

val extent : t list -> (float * float) * (float * float)
(** Joint bounding box [((xmin, xmax), (ymin, ymax))] of non-empty series.
    @raise Invalid_argument when all series are empty. *)
