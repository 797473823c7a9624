module Fp = Gnrflash_quantum.Fn_plot
module Fn = Gnrflash_quantum.Fn
module Grid = Gnrflash_numerics.Grid
open Gnrflash_testing.Testing

let p = Fn.coefficients ~phi_b_ev:3.2 ~m_ox_rel:0.42

let fields = Grid.linspace 8e8 1.8e9 15

(* the closed-form model's currents at the given fields *)
let model_currents fields = Array.map (fun e -> Fn.current_density p ~field:e) fields

let test_points_are_linear () =
  (* the FN plot of the exact model is a perfect line: check collinearity *)
  let pts = Fp.points_of_data ~fields ~currents:(model_currents fields) in
  let x0, y0 = pts.(0) and x1, y1 = pts.(Array.length pts - 1) in
  let slope = (y1 -. y0) /. (x1 -. x0) in
  Array.iter
    (fun (x, y) ->
       check_close ~tol:1e-9 "collinear" (y0 +. (slope *. (x -. x0))) y)
    pts

let test_points_slope_is_minus_b () =
  let pts = Fp.points_of_data ~fields ~currents:(model_currents fields) in
  let x0, y0 = pts.(0) and x1, y1 = pts.(Array.length pts - 1) in
  check_close ~tol:1e-9 "slope = -B" (-.p.Fn.b) ((y1 -. y0) /. (x1 -. x0))

let test_extract_roundtrip () =
  let e = check_ok "extract" (Fp.extract ~fields ~currents:(model_currents fields)) in
  check_close ~tol:1e-6 "A recovered" p.Fn.a e.Fp.a;
  check_close ~tol:1e-6 "B recovered" p.Fn.b e.Fp.b;
  check_close ~tol:1e-9 "perfect line" 1. e.Fp.r_squared

let test_extract_with_noise () =
  let rng = Random.State.make [| 7 |] in
  let currents =
    Array.map
      (fun e ->
         Fn.current_density p ~field:e
         *. (1. +. (0.03 *. ((2. *. Random.State.float rng 1.) -. 1.))))
      fields
  in
  let e = check_ok "extract" (Fp.extract ~fields ~currents) in
  check_close ~tol:0.02 "B within 2%" p.Fn.b e.Fp.b;
  check_in "R^2 still high" ~lo:0.99 ~hi:1. e.Fp.r_squared

let test_points_of_data_drops_invalid () =
  let pts =
    Fp.points_of_data ~fields:[| 1e9; 1.2e9; 1.4e9 |] ~currents:[| 1.; 0.; -3. |]
  in
  Alcotest.(check int) "only positive J kept" 1 (Array.length pts)

let test_extract_too_few () =
  check_error "one point" (Fp.extract ~fields:[| 1e9 |] ~currents:[| 1. |])

let test_length_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Fn_plot.points_of_data: length mismatch") (fun () ->
      ignore (Fp.points_of_data ~fields:[| 1e9 |] ~currents:[| 1.; 2. |]))

let prop_extraction_stable_across_ranges =
  prop "B recovered from any sub-range" ~count:25
    QCheck2.Gen.(float_range 6e8 1.2e9)
    (fun lo ->
       let fields = Grid.linspace lo (lo *. 1.8) 10 in
       match Fp.extract ~fields ~currents:(model_currents fields) with
       | Error _ -> false
       | Ok e -> abs_float (e.Fp.b -. p.Fn.b) <= 1e-4 *. p.Fn.b)

let () =
  Alcotest.run "fn_plot"
    [
      ( "fn_plot",
        [
          case "model points collinear" test_points_are_linear;
          case "slope equals -B" test_points_slope_is_minus_b;
          case "round-trip extraction" test_extract_roundtrip;
          case "noisy extraction" test_extract_with_noise;
          case "invalid points dropped" test_points_of_data_drops_invalid;
          case "too few points" test_extract_too_few;
          case "length mismatch" test_length_mismatch;
          prop_extraction_stable_across_ranges;
        ] );
    ]
