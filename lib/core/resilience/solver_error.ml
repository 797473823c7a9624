type kind =
  | Invalid_input of string
  | Bracket_failure of { lo : float; hi : float; f_lo : float; f_hi : float }
  | No_convergence of { iterations : int; best : float; f_best : float }
  | Nan_region of { at : float }
  | Step_underflow of { t : float; h : float }
  | Max_steps of { steps : int; t : float }
  | Budget_exhausted of { evals : int; elapsed_s : float }

type t = { solver : string; kind : kind }

let make ~solver kind = { solver; kind }

exception Solver_failure of t

let protect f = try f () with Solver_failure e -> Error e

let kind_label = function
  | Invalid_input _ -> "invalid_input"
  | Bracket_failure _ -> "bracket_failure"
  | No_convergence _ -> "no_convergence"
  | Nan_region _ -> "nan_region"
  | Step_underflow _ -> "step_underflow"
  | Max_steps _ -> "max_steps"
  | Budget_exhausted _ -> "budget_exhausted"

let label e = kind_label e.kind

let message = function
  | Invalid_input msg -> msg
  | Bracket_failure { lo; hi; f_lo; f_hi } ->
    Printf.sprintf "no sign change on bracket [%g, %g] (f: %g, %g)" lo hi f_lo
      f_hi
  | No_convergence { iterations; best; f_best } ->
    Printf.sprintf "no convergence after %d iterations (best x = %g, f = %g)"
      iterations best f_best
  | Nan_region { at } -> Printf.sprintf "non-finite function value at %g" at
  | Step_underflow { t; h } ->
    Printf.sprintf "step size underflow at t = %g (h = %g)" t h
  | Max_steps { steps; t } ->
    Printf.sprintf "max steps (%d) exceeded at t = %g" steps t
  | Budget_exhausted { evals; elapsed_s } ->
    Printf.sprintf "budget exhausted after %d evals / %.3f s" evals elapsed_s

let to_string e = e.solver ^ ": " ^ message e.kind
