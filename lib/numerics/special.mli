(** Special functions needed by the tunneling models.

    Accuracy notes: [erfc] is good to ~1e-7 absolute; [gamma] and
    [ln_gamma] to ~1e-10 relative away from poles; the Airy functions to
    better than ~1e-8 relative for |x| ≲ 30 (power series for small
    arguments, asymptotic expansions beyond). *)

val erfc : float -> float
(** Complementary error function, [1 - erf x]. *)

(* lint: allow L14 — no program calls it; test_special pins it *)
val gamma : float -> float
(** Gamma function (Lanczos approximation with reflection for [x < 0.5]).
    Returns [nan] at non-positive integers. *)

(* lint: allow L14 — no program calls it; test_special pins it *)
val ln_gamma : float -> float
(** Natural log of |Γ(x)| for [x > 0]. *)

val airy_all : float -> float * float * float * float
(** [(Ai, Ai', Bi, Bi')] at the given point, sharing intermediate work. *)
