module R = Gnrflash_numerics.Roots
open Gnrflash_testing.Testing

(* the numerics/device solvers under test return typed solver errors *)
let check_ok msg r = check_sok msg r
let check_error msg r = ignore (check_serr msg r)

let cubic x = (x *. x *. x) -. (2. *. x) -. 5.
(* real root near 2.0945514815423265 *)
let cubic_root = 2.0945514815423265

let test_brent_cubic () =
  let x = check_ok "brent" (R.brent cubic 1. 3.) in
  check_close ~tol:1e-12 "cubic root" cubic_root x

let test_brent_cos () =
  let x = check_ok "brent" (R.brent cos 1. 2.) in
  check_close ~tol:1e-12 "pi/2" (Float.pi /. 2.) x

let test_brent_tiny_root () =
  (* magnitude ~1e-17: regression test for the absolute-floor bug that made
     the device-charge root finding return bracket endpoints *)
  let f x = x -. 3.2e-17 in
  let x = check_ok "brent tiny" (R.brent f 0. 1e-16) in
  check_close ~tol:1e-9 "tiny root" 3.2e-17 x

let test_bracket_root () =
  let lo, hi = check_ok "bracket" (R.bracket_root cubic 0. 0.5) in
  check_true "sign change" (cubic lo *. cubic hi <= 0.)

let test_bracket_root_fails () =
  check_error "no root anywhere"
    (R.bracket_root (fun x -> (x *. x) +. 1.) 0. 1.)

let test_brent_max_iter_unconverged () =
  (* regression: exhausting max_iter used to silently return the current
     iterate as Ok; it must be a typed No_convergence carrying the best
     iterate instead *)
  let module E = Gnrflash_resilience.Solver_error in
  let e = check_serr "unconverged" (R.brent ~max_iter:2 cubic 1. 3.) in
  match e.E.kind with
  | E.No_convergence { iterations; best; f_best } ->
    Alcotest.(check int) "stopped at the cap" 2 iterations;
    check_in "best iterate stayed in the bracket" ~lo:1. ~hi:3. best;
    check_close ~tol:1e-9 "residual attached" (cubic best) f_best
  | _ -> Alcotest.failf "expected No_convergence, got %s" (E.to_string e)

let test_brent_budget_exhausted () =
  let module B = Gnrflash_resilience.Budget in
  let module E = Gnrflash_resilience.Solver_error in
  let b = B.make ~max_evals:1 () in
  let e =
    B.with_budget b (fun () -> check_serr "budget" (R.brent cubic 1. 3.))
  in
  Alcotest.(check string) "typed budget error" "budget_exhausted" (E.label e)

let prop_brent_finds_linear_roots =
  prop "brent solves a(x - r) = 0"
    QCheck2.Gen.(pair (float_range (-50.) 50.) (float_range 0.1 10.))
    (fun (r, a) ->
       match R.brent (fun x -> a *. (x -. r)) (r -. 7.) (r +. 13.) with
       | Ok x -> abs_float (x -. r) <= 1e-7 *. (1. +. abs_float r)
       | Error _ -> false)

let () =
  Alcotest.run "roots"
    [
      ( "roots",
        [
          case "brent cubic" test_brent_cubic;
          case "brent cos" test_brent_cos;
          case "brent tiny-magnitude root" test_brent_tiny_root;
          case "bracket_root expands" test_bracket_root;
          case "bracket_root fails cleanly" test_bracket_root_fails;
          case "brent max_iter is No_convergence" test_brent_max_iter_unconverged;
          case "brent honors the eval budget" test_brent_budget_exhausted;
          prop_brent_finds_linear_roots;
        ] );
    ]
