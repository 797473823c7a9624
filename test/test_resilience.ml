module Err = Gnrflash_resilience.Solver_error
module Budget = Gnrflash_resilience.Budget
module R = Gnrflash_numerics.Roots
open Gnrflash_testing.Testing

(* ---- Solver_error ---- *)

let test_to_string_shape () =
  let e = Err.make ~solver:"Roots.brent" (Err.Invalid_input "empty interval") in
  let s = Err.to_string e in
  check_true "solver-prefixed message"
    (String.length s > String.length "Roots.brent: "
     && String.sub s 0 13 = "Roots.brent: ")

let test_labels () =
  let l kind = Err.kind_label kind in
  Alcotest.(check string) "invalid_input" "invalid_input"
    (l (Err.Invalid_input "x"));
  Alcotest.(check string) "no_convergence" "no_convergence"
    (l (Err.No_convergence { iterations = 3; best = 0.; f_best = 1. }));
  Alcotest.(check string) "budget_exhausted" "budget_exhausted"
    (l (Err.Budget_exhausted { evals = 1; elapsed_s = 0. }));
  let e = Err.make ~solver:"X" (Err.Step_underflow { t = 0.; h = 1e-301 }) in
  Alcotest.(check string) "label of t" "step_underflow" (Err.label e)

let test_protect_catches_solver_failure () =
  let e =
    check_serr "protect"
      (Err.protect (fun () ->
           raise (Err.Solver_failure (Err.make ~solver:"X" (Err.Invalid_input "boom")))))
  in
  Alcotest.(check string) "solver carried" "X" e.Err.solver

let test_protect_passes_other_exceptions () =
  Alcotest.check_raises "foreign exception flows through" Not_found (fun () ->
      ignore (Err.protect (fun () -> raise Not_found)))

(* ---- Budget ---- *)

let test_budget_eval_cap () =
  let b = Budget.make ~max_evals:10 () in
  Budget.with_budget b (fun () ->
      Budget.note_evals 5;
      check_false "under cap" (Budget.exhausted b);
      (match Budget.check ~solver:"t" () with
       | Ok () -> ()
       | Error _ -> Alcotest.fail "must pass under cap");
      Budget.note_evals 6;
      check_true "over cap" (Budget.exhausted b);
      match Budget.check ~solver:"t" () with
      | Ok () -> Alcotest.fail "must fail over cap"
      | Error e ->
        Alcotest.(check string) "typed" "budget_exhausted" (Err.label e);
        Alcotest.(check string) "solver recorded" "t" e.Err.solver);
  check_true "slot restored" (Budget.For_testing.current () = None);
  Alcotest.(check int) "evals counted" 11 (Budget.For_testing.evals b)

let test_budget_no_budget_passes () =
  check_true "no ambient budget" (Budget.For_testing.current () = None);
  match Budget.check ~solver:"t" () with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "check must pass with no budget installed"

let test_budget_nesting () =
  let outer = Budget.make ~max_evals:100 () in
  let inner = Budget.make ~max_evals:5 () in
  Budget.with_budget outer (fun () ->
      Budget.note_evals 1;
      Budget.with_budget inner (fun () -> Budget.note_evals 2);
      Budget.note_evals 3);
  Alcotest.(check int) "outer charged outside the nest" 4 (Budget.For_testing.evals outer);
  Alcotest.(check int) "inner charged inside the nest" 2 (Budget.For_testing.evals inner)

let test_budget_expired_wall_clock () =
  (* a deadline already in the past is exhausted deterministically *)
  let b = Budget.make ~wall_ms:(-10.) () in
  check_true "past deadline" (Budget.exhausted b);
  Budget.with_budget b (fun () ->
      match Budget.check ~solver:"t" () with
      | Ok () -> Alcotest.fail "expired deadline must fail"
      | Error e ->
        Alcotest.(check string) "typed" "budget_exhausted" (Err.label e))

(* ---- Faults raised by the caller's function ---- *)

(* A function that fails from inside a root find (as quadrature's budget
   poll does deep in an integrand) raises [Solver_failure]; [brent] must
   return that typed error, not let the exception escape. The fault is the
   test's own closure: it raises on its third evaluation. *)
let test_fault_brent_typed_error () =
  let evals = ref 0 in
  let fault = Err.make ~solver:"test/f" (Err.Nan_region { at = 0. }) in
  let f x =
    incr evals;
    if !evals = 3 then raise (Err.Solver_failure fault) else (x *. x) -. 2.
  in
  let e = check_serr "faulted brent" (R.brent f 0. 2.) in
  check_true "the raised error, unchanged" (e = fault);
  Alcotest.(check int) "stopped at the faulting eval" 3 !evals

let () =
  Alcotest.run "resilience"
    [
      ( "solver_error",
        [
          case "to_string keeps solver prefix" test_to_string_shape;
          case "class labels" test_labels;
          case "protect catches Solver_failure" test_protect_catches_solver_failure;
          case "protect is not a catch-all" test_protect_passes_other_exceptions;
        ] );
      ( "budget",
        [
          case "eval cap" test_budget_eval_cap;
          case "no ambient budget passes" test_budget_no_budget_passes;
          case "nesting restores outer" test_budget_nesting;
          case "expired wall clock" test_budget_expired_wall_clock;
        ] );
      ("fault", [ case "brent surfaces typed fault" test_fault_brent_typed_error ]);
    ]
