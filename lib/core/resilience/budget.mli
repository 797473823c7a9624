(** Cooperative solver budgets: a wall-clock deadline and/or a cap on
    function evaluations, checked at iteration/step boundaries.

    A budget is installed for a dynamic extent with {!with_budget} (it lives
    in a process-global slot, so it is visible to solver code regardless of
    call depth — including [Sweep] worker domains, which
    share the slot). Because the slot is process-wide, a caller installs a
    budget around a whole command (as the CLI's [--budget-ms] does), never
    around one element of a parallel sweep: two domains installing their
    own would restore each other's slot mid-solve. Solvers report work via {!note_evals} and poll
    {!check} / {!check_exn}; exceeding the budget yields
    [Solver_error.Budget_exhausted]. With no budget installed every check
    passes and the overhead is one atomic load. *)

type t

val make : ?wall_ms:float -> ?max_evals:int -> unit -> t
(** [make ~wall_ms ~max_evals ()] starts the wall clock now. Omitted limits
    are unconstrained. *)

val elapsed_s : t -> float

val exhausted : t -> bool

val with_budget : t -> (unit -> 'a) -> 'a
(** Install [t] as the ambient budget for the thunk (restoring the previous
    one afterwards, exception-safe). *)

val note_evals : int -> unit
(** Charge n evaluations against the ambient budget (no-op without one). *)

val check : solver:string -> unit -> (unit, Solver_error.t) result
(** Poll the ambient budget. On exhaustion returns
    [Error (Budget_exhausted ...)] and bumps the
    [resilience/budget_exhausted] telemetry counter. *)

val check_exn : solver:string -> unit -> unit
(** Like {!check} but raises [Solver_error.Solver_failure] — for solvers
    that cannot return a [result] mid-iteration (e.g. quadrature). *)

(** Observers for tests. *)
module For_testing : sig
  val evals : t -> int
  (** Function evaluations charged so far. *)

  val current : unit -> t option
  (** The ambient budget, if one is installed. *)
end
