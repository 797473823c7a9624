(** One-dimensional root finding.

    All solvers return [Ok x] with [f x ~ 0], or a typed
    [Gnrflash_resilience.Solver_error.t] when the iteration fails to
    converge or the problem is ill-posed (e.g. no sign change on the
    bracket). Function evaluations are charged against the ambient
    {!Gnrflash_resilience.Budget} (when one is installed) and solvers
    poll it at iteration boundaries, failing with [Budget_exhausted]
    rather than running on. *)

type error = Gnrflash_resilience.Solver_error.t

val brent :
  ?max_iter:int -> (float -> float) -> float -> float ->
  (float, error) result
(** [brent f a b] is Brent's method on the bracket [[a, b]]: inverse
    quadratic interpolation and secant steps guarded by bisection.
    Requires [f a] and [f b] to have opposite signs (an exact zero at an
    endpoint is accepted). It stops once the bracket is narrower than
    [1e-12] times the magnitude of the endpoints. Typically converges
    super-linearly. Exhausting [max_iter] (default 200) without meeting
    that tolerance
    returns [No_convergence] carrying the best iterate — never a silently
    unconverged [Ok]. *)

val bracket_root :
  (float -> float) -> float -> float ->
  ((float * float), error) result
(** [bracket_root f a b] expands the interval [[a, b]] geometrically
    (by 1.6 times its width per step) until [f] changes sign across it,
    returning the bracketing pair, or a [Bracket_failure] after 60
    expansions. *)
