(** One-dimensional numerical integration. *)

val adaptive_simpson : ?tol:float -> (float -> float) -> float -> float -> float
(** [adaptive_simpson f a b] integrates with recursive Simpson refinement to
    absolute tolerance [tol] (default [1e-10]), at most 40 halvings
    deep. *)

type rule
(** A Gauss–Legendre rule: its nodes and weights on [[-1, 1]]. Nothing can
    change one once built, so a rule built at module initialisation is
    shared by every domain. *)

val gauss_legendre_rule : int -> rule
(** [gauss_legendre_rule n] is the [n]-point rule, its nodes found by
    Newton iteration on the Legendre polynomial [P_n]. Build it once and
    pass it to every {!gauss_legendre} call.
    @raise Invalid_argument if [n < 1]. *)

val gauss_legendre : rule -> (float -> float) -> float -> float -> float
(** [gauss_legendre rule f a b] integrates [f] over [[a, b]] on the rule's
    nodes; exact for polynomials of degree [2n - 1] with an [n]-point
    rule. *)

(** The fixed-grid oracle [test/test_quadrature.ml] checks
    {!adaptive_simpson} against. No program calls it. *)
module For_testing : sig
  val simpson : (float -> float) -> float -> float -> n:int -> float
  (** [simpson f a b ~n] is composite Simpson with [n] subintervals ([n]
      is rounded up to the next even integer). Exact for cubics.
      @raise Invalid_argument if [n < 1]. *)
end
