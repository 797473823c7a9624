(** Descriptive statistics over [float array] samples. Functions that need a
    non-empty sample raise [Invalid_argument] on an empty array. *)

val mean : float array -> float
(** Arithmetic mean. *)

val variance : float array -> float
(** Unbiased sample variance (divides by [n-1]); [0.] for a single point. *)

val std : float array -> float
(** Sample standard deviation. *)

val min_max : float array -> float * float
(** Smallest and largest element. *)

val median : float array -> float
(** Median (average of the two central elements for even length). *)

val percentile : float -> float array -> float
(** [percentile p xs] for [p] in [[0, 100]], with linear interpolation
    between order statistics. @raise Invalid_argument for [p] out of range. *)

type histogram = {
  edges : float array;   (** [bins+1] bin edges *)
  counts : int array;    (** [bins] occupancy counts *)
}

val histogram : bins:int -> float array -> histogram
(** Equal-width histogram between the sample min and max (the max falls in
    the last bin). @raise Invalid_argument if [bins < 1]. *)
