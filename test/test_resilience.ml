module Err = Gnrflash_resilience.Solver_error
module Budget = Gnrflash_resilience.Budget
module Fallback = Gnrflash_resilience.Fallback
module Fault = Gnrflash_resilience.Fault
module R = Gnrflash_numerics.Roots
module Sweep = Gnrflash_parallel.Sweep
module Tel = Gnrflash_telemetry.Telemetry
open Gnrflash_testing.Testing

let with_tel f =
  Tel.reset ();
  Tel.enable ();
  Fun.protect ~finally:(fun () -> Tel.disable (); Tel.reset ()) f

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
  Alcotest.(check string) "fault_injected" "fault_injected"
    (l (Err.Fault_injected { eval = 0 }));
  let e = Err.make ~solver:"X" (Err.Step_underflow { t = 0.; h = 1e-301 }) in
  Alcotest.(check string) "label of t" "step_underflow" (Err.label e)

let test_protect_catches_solver_failure () =
  let e =
    check_serr "protect"
      (Err.protect (fun () ->
           Err.fail ~solver:"X" (Err.Invalid_input "boom")))
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

(* ---- Fallback ---- *)

let no_conv = Err.No_convergence { iterations = 1; best = 0.; f_best = 1. }

let test_fallback_first_rung_ok () =
  with_tel @@ fun () ->
  let r =
    Fallback.run
      [
        Fallback.rung "a" (fun () -> Ok 1);
        Fallback.rung "b" (fun () -> Alcotest.fail "b must not run");
      ]
  in
  Alcotest.(check int) "first rung wins" 1 (check_sok "ladder" r);
  Alcotest.(check int) "no fallback recorded" 0
    (Tel.For_testing.counter_total "resilience/fallback_used");
  Alcotest.(check int) "one attempt" 1
    (Tel.For_testing.counter_total "resilience/rung_attempt")

let test_fallback_escalates () =
  with_tel @@ fun () ->
  let r =
    Fallback.run
      [
        (* raising Solver_failure inside a rung is equivalent to Error *)
        Fallback.rung "a" (fun () -> Err.fail ~solver:"X" no_conv);
        Fallback.rung "b" (fun () -> Ok 2);
      ]
  in
  Alcotest.(check int) "second rung rescues" 2 (check_sok "ladder" r);
  Alcotest.(check int) "fallback recorded" 1
    (Tel.For_testing.counter_total "resilience/fallback_used");
  Alcotest.(check int) "rescuing rung named" 1
    (Tel.For_testing.counter_total "resilience/fallback_rung/b");
  Alcotest.(check int) "one failure" 1
    (Tel.For_testing.counter_total "resilience/rung_failed");
  Alcotest.(check int) "two attempts" 2
    (Tel.For_testing.counter_total "resilience/rung_attempt")

let test_fallback_all_fail_returns_last () =
  let e =
    check_serr "ladder"
      (Fallback.run
         [
           Fallback.rung "a" (fun () -> Error (Err.make ~solver:"A" no_conv));
           Fallback.rung "b" (fun () ->
               Error (Err.make ~solver:"B" (Err.Zero_derivative { x = 0. })));
         ])
  in
  Alcotest.(check string) "last rung's error" "B" e.Err.solver;
  Alcotest.(check string) "last rung's kind" "zero_derivative" (Err.label e)

let test_fallback_stops_on_budget_exhausted () =
  with_tel @@ fun () ->
  let e =
    check_serr "ladder"
      (Fallback.run
         [
           Fallback.rung "a" (fun () ->
               Error
                 (Err.make ~solver:"A"
                    (Err.Budget_exhausted { evals = 1; elapsed_s = 0. })));
           Fallback.rung "b" (fun () -> Alcotest.fail "must not escalate");
         ])
  in
  Alcotest.(check string) "budget error surfaces" "budget_exhausted"
    (Err.label e);
  Alcotest.(check int) "only the first rung tried" 1
    (Tel.For_testing.counter_total "resilience/rung_attempt")

let test_fallback_empty_invalid () =
  Alcotest.check_raises "empty ladder"
    (Invalid_argument "Fallback.run: empty ladder") (fun () ->
      ignore (Fallback.run ([] : int Fallback.rung list)))

(* ---- Fault injection ---- *)

let outcomes ?seed ?limit mode n =
  Fault.For_testing.with_faults ?seed ?limit mode (fun () ->
      let acc = ref [] in
      for _ = 1 to n do
        acc := Fault.outcome () :: !acc
      done;
      (List.rev !acc, Fault.For_testing.injected ()))

let test_fault_deterministic () =
  let a, _ = outcomes ~seed:7 (Fault.Nan_every 3) 60 in
  let b, _ = outcomes ~seed:7 (Fault.Nan_every 3) 60 in
  let c, _ = outcomes ~seed:8 (Fault.Nan_every 3) 60 in
  check_true "same seed reproduces" (a = b);
  check_true "different seed differs" (a <> c);
  let fired = List.length (List.filter (fun o -> o <> `Pass) a) in
  check_in "~1/3 of evals fault" ~lo:8. ~hi:35. (float_of_int fired)

let test_fault_rate_one_fires_every_eval () =
  let a, fired = outcomes ~seed:1 (Fault.Nan_every 1) 10 in
  check_true "every eval faults" (List.for_all (fun o -> o = `Nan) a);
  Alcotest.(check int) "all counted" 10 fired

let test_fault_limit_caps () =
  let a, fired = outcomes ~seed:1 ~limit:2 (Fault.Nan_every 1) 10 in
  Alcotest.(check int) "exactly limit faults fired" 2 fired;
  check_true "first two fault, rest pass"
    (a = [ `Nan; `Nan; `Pass; `Pass; `Pass; `Pass; `Pass; `Pass; `Pass; `Pass ])

let test_fault_fail_mode_carries_eval_index () =
  let a, _ = outcomes ~seed:1 (Fault.Fail_every 1) 3 in
  check_true "eval indices in order" (a = [ `Fail 0; `Fail 1; `Fail 2 ])

let test_fault_none_without_plan () =
  check_true "no plan: pass" (Fault.outcome () = `Pass);
  Alcotest.(check int) "no plan: nothing injected" 0 (Fault.For_testing.injected ())

let test_fault_brent_typed_error () =
  Fault.For_testing.with_faults ~seed:0 (Fault.Fail_every 1) (fun () ->
      let e =
        check_serr "faulted brent"
          (R.brent (fun x -> (x *. x) -. 2.) 0. 2.)
      in
      Alcotest.(check string) "typed fault" "fault_injected" (Err.label e);
      Alcotest.(check string) "solver attributed" "Roots.brent" e.Err.solver)

let test_fault_telemetry_counter () =
  with_tel @@ fun () ->
  let _, fired = outcomes ~seed:5 (Fault.Nan_every 2) 40 in
  Alcotest.(check int) "counter matches fired faults" fired
    (Tel.For_testing.counter_total "resilience/fault_injected")

(* ---- determinism of fault-injected ladders under parallelism ---- *)

(* One item of a sweep: a fault-injected root solve behind a two-rung
   ladder, seeded per item. The outcome (value, rung bookkeeping, faults
   fired) must depend only on the seed — never on how Sweep chunks the
   items over domains. *)
let solve_item base_seed i =
  Fault.For_testing.with_faults ~seed:(base_seed + i) ~limit:1 (Fault.Nan_every 2)
    (fun () ->
      let attempt () = R.brent (fun x -> (x *. x) -. 2. +. float_of_int (i mod 3) *. 0.1) 0. 2. in
      let r =
        Fallback.run
          [ Fallback.rung "first" attempt; Fallback.rung "retry" attempt ]
      in
      let v = match r with Ok x -> (true, x) | Error e -> (false, float_of_int (String.length (Err.label e))) in
      (v, Fault.For_testing.injected ()))

let prop_ladder_deterministic_across_jobs =
  prop "fault-injected ladders are reproducible across seeds and job counts"
    ~count:10
    QCheck2.Gen.(int_bound 10_000)
    (fun base_seed ->
      let n = 9 in
      let reference = Sweep.init ~jobs:1 n (solve_item base_seed) in
      List.for_all
        (fun jobs -> Sweep.init ~jobs n (solve_item base_seed) = reference)
        [ 1; 2; 4 ])

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
      ( "fallback",
        [
          case "first rung wins" test_fallback_first_rung_ok;
          case "escalation rescues" test_fallback_escalates;
          case "all rungs fail" test_fallback_all_fail_returns_last;
          case "budget exhaustion stops escalation" test_fallback_stops_on_budget_exhausted;
          case "empty ladder rejected" test_fallback_empty_invalid;
        ] );
      ( "fault",
        [
          case "deterministic per seed" test_fault_deterministic;
          case "rate 1 fires every eval" test_fault_rate_one_fires_every_eval;
          case "limit caps fired faults" test_fault_limit_caps;
          case "fail mode carries eval index" test_fault_fail_mode_carries_eval_index;
          case "no plan means no faults" test_fault_none_without_plan;
          case "brent surfaces typed fault" test_fault_brent_typed_error;
          case "telemetry counts fired faults" test_fault_telemetry_counter;
          prop_ladder_deterministic_across_jobs;
        ] );
    ]
