(** Typed taxonomy for numeric-solver failures.

    Every root finder, integrator, and the device-layer solves built on them
    report failures as a {!t}: a machine-matchable [kind] carrying the last
    useful context (bracket, iteration count, step size), tagged with the
    solver that raised it. {!to_string} renders the same
    ["Solver.name: message"] shape the old stringly-typed errors used, so
    CLI and report output is unchanged. *)

type kind =
  | Invalid_input of string
      (** ill-posed call (non-positive duration, empty interval, ...) *)
  | Bracket_failure of { lo : float; hi : float; f_lo : float; f_hi : float }
      (** no sign change across the (possibly expanded) bracket *)
  | No_convergence of { iterations : int; best : float; f_best : float }
      (** iteration cap hit before the tolerance was met; [best] is the
          last (best) iterate rather than a silently-returned "root" *)
  | Nan_region of { at : float }
      (** the iteration entered a region where the function is not finite
          and could not step out of it *)
  | Step_underflow of { t : float; h : float }
      (** adaptive step size shrank below the integrator's 1e-300 floor at
          time [t] *)
  | Max_steps of { steps : int; t : float }
      (** integrator step cap hit before reaching the horizon *)
  | Budget_exhausted of { evals : int; elapsed_s : float }
      (** the cooperative {!Budget} (wall clock and/or eval cap) ran out *)

type t = {
  solver : string;  (** e.g. ["Roots.brent"], ["Transient.run"] *)
  kind : kind;
}

val make : solver:string -> kind -> t

exception Solver_failure of t
(** Escape hatch for solvers that cannot return a [result] (quadrature's
    budget poll deep in an integrand). Public result-returning entry points
    catch it via {!protect} so it never leaks to callers. *)

val protect : (unit -> ('a, t) result) -> ('a, t) result
(** Run a thunk, converting an escaping {!Solver_failure} into [Error]. *)

val label : t -> string
(** Short machine-friendly class tag ("bracket_failure", "budget_exhausted",
    ...) — the key used by {!Gnrflash_device.Variation} failure counts. *)

val kind_label : kind -> string

val to_string : t -> string
(** ["<solver>: <message>"], the shape the CLI and reports print. *)
