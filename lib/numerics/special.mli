(** Special functions needed by the tunneling models.

    Accuracy notes: [erfc] is good to ~1e-7 absolute; the Airy functions to
    better than ~1e-8 relative for |x| ≲ 30 (power series for small
    arguments, asymptotic expansions beyond). *)

val erfc : float -> float
(** Complementary error function, [1 - erf x]. *)

val airy_all : float -> float * float * float * float
(** [(Ai, Ai', Bi, Bi')] at the given point, sharing intermediate work. *)
