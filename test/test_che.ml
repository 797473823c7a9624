module Che = Gnrflash_quantum.Che
open Gnrflash_testing.Testing

let p = Che.For_testing.default_si

let test_default_parameters () =
  check_close "lambda" 9.2e-9 p.Che.lambda;
  check_close "barrier" 3.2 p.Che.phi_b_ev;
  check_close "prefactor" 2e-3 p.Che.prefactor

let test_injection_probability_zero_field () =
  check_close "no field, no injection" 0. (Che.injection_probability p ~lateral_field:0.);
  check_close "reverse field" 0. (Che.injection_probability p ~lateral_field:(-1e8))

let test_injection_probability_magnitude () =
  (* at 5e8 V/m (typical drain-side peak): exponent = 3.2/(5e8*9.2e-9) = 0.6957 *)
  let prob = Che.injection_probability p ~lateral_field:5e8 in
  check_close ~tol:1e-6 "lucky electron" (2e-3 *. exp (-3.2 /. (5e8 *. 9.2e-9))) prob;
  check_in "well below 1" ~lo:0. ~hi:1e-2 prob

let test_gate_current () =
  let ig = Che.gate_current p ~drain_current:1e-3 ~lateral_field:5e8 in
  check_true "some injection" (ig > 0.);
  check_true "tiny fraction of Id" (ig < 1e-5)

let test_gate_current_validation () =
  Alcotest.check_raises "negative Id"
    (Invalid_argument "Che.gate_current: negative drain current") (fun () ->
      ignore (Che.gate_current p ~drain_current:(-1.) ~lateral_field:1e8))

let test_programming_budget_vs_fn () =
  (* the paper's Section II point: CHE needs ~mA per cell, so programming a
     4 kB page costs amps, while FN needs < 1 nA per cell *)
  let budget = Che.programming_current_budget p ~drain_current:0.5e-3
      ~lateral_field:5e8 ~cells:32768 in
  check_true "CHE page budget exceeds 10 A" (budget > 10.);
  let fn_budget = 1e-9 *. 32768. in
  check_true "FN page budget under 0.1 mA" (fn_budget < 1e-4);
  check_true "FN advantage > 1e5" (budget /. fn_budget > 1e5)

let prop_injection_monotone_in_field =
  prop "injection probability increases with lateral field"
    QCheck2.Gen.(float_range 1e8 1e9)
    (fun e ->
       Che.injection_probability p ~lateral_field:(e *. 1.2)
       > Che.injection_probability p ~lateral_field:e)

let prop_gate_current_linear_in_id =
  prop "gate current linear in drain current" QCheck2.Gen.(float_range 1e-5 1e-2)
    (fun id ->
       let e = 4e8 in
       let i1 = Che.gate_current p ~drain_current:id ~lateral_field:e in
       let i2 = Che.gate_current p ~drain_current:(2. *. id) ~lateral_field:e in
       abs_float ((i2 /. i1) -. 2.) < 1e-9)

let () =
  Alcotest.run "che"
    [
      ( "che",
        [
          case "default parameters" test_default_parameters;
          case "zero field" test_injection_probability_zero_field;
          case "lucky-electron magnitude" test_injection_probability_magnitude;
          case "gate current" test_gate_current;
          case "validation" test_gate_current_validation;
          case "CHE vs FN budget (paper Section II)" test_programming_budget_vs_fn;
          prop_injection_monotone_in_field;
          prop_gate_current_linear_in_id;
        ] );
    ]
