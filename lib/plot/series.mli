(** A labelled data series for plotting. *)

type t = {
  label : string;
  points : (float * float) array;
}

val make : label:string -> (float * float) array -> t
(** Build a series; points are copied. *)

(* lint: allow L14 — no program calls it; test_series pins it *)
val of_arrays : label:string -> float array -> float array -> t
(** Zip two coordinate arrays. @raise Invalid_argument on length mismatch. *)

(* lint: allow L14 — no program calls it; test_series pins it *)
val of_fn : label:string -> xs:float array -> (float -> float) -> t
(** Sample a function on a grid. *)

(* lint: allow L14 — no program calls it; test_series pins it *)
val map_y : (float -> float) -> t -> t
(** Transform ordinates (e.g. unit conversion). *)

val filter : ((float * float) -> bool) -> t -> t
(** Keep only matching points (e.g. positive values before a log plot). *)

val ys : t -> float array
(** The ordinates. *)

val extent : t list -> (float * float) * (float * float)
(** Joint bounding box [((xmin, xmax), (ymin, ymax))] of non-empty series.
    @raise Invalid_argument when all series are empty. *)
