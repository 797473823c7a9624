(** One-dimensional numerical integration. *)

(* lint: allow L14 — no program calls it; test_quadrature pins it *)
val trapezoid : (float -> float) -> float -> float -> n:int -> float
(** [trapezoid f a b ~n] is the composite trapezoid rule with [n]
    subintervals. @raise Invalid_argument if [n < 1]. *)

(* lint: allow L14 — no program calls it; test_quadrature pins it *)
val trapezoid_samples : float array -> float array -> float
(** [trapezoid_samples xs ys] integrates tabulated samples [(xs, ys)] with
    the trapezoid rule. [xs] must be sorted increasing.
    @raise Invalid_argument on length mismatch or fewer than two points. *)

val adaptive_simpson : ?tol:float -> (float -> float) -> float -> float -> float
(** [adaptive_simpson f a b] integrates with recursive Simpson refinement to
    absolute tolerance [tol] (default [1e-10]), at most 40 halvings
    deep. *)

val gauss_legendre : ?order:int -> (float -> float) -> float -> float -> float
(** [gauss_legendre ~order f a b] is Gauss–Legendre quadrature with [order]
    nodes (default 16). Nodes and weights are computed by Newton iteration on
    the Legendre polynomial and cached per order; exact for polynomials of
    degree [2*order - 1]. @raise Invalid_argument if [order < 1]. *)

val gauss_legendre_nodes : int -> (float array * float array)
(** [gauss_legendre_nodes n] is the pair [(nodes, weights)] on [[-1, 1]].
    Results are cached. *)

(* lint: allow L14 — no program calls it; test_quadrature pins it *)
val integrate_to_inf :
  ?tol:float -> ?decades:float -> (float -> float) -> float -> float
(** [integrate_to_inf f a] approximates [∫_a^∞ f] for integrands decaying at
    least exponentially, by mapping successive geometric panels until a panel
    contributes less than [tol] (default [1e-12]) of the running total or
    [decades] (default 6) decades past [max a 1.] have been covered. *)

(** The fixed-grid oracle [test/test_quadrature.ml] checks
    {!adaptive_simpson} against. No program calls it. *)
module For_testing : sig
  val simpson : (float -> float) -> float -> float -> n:int -> float
  (** [simpson f a b ~n] is composite Simpson with [n] subintervals ([n]
      is rounded up to the next even integer). Exact for cubics.
      @raise Invalid_argument if [n < 1]. *)
end
