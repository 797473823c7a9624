module I = Gnrflash_numerics.Interp
open Gnrflash_testing.Testing

let xs = [| 0.; 1.; 2.; 3. |]
let ys = [| 0.; 1.; 4.; 9. |] (* x^2 at the knots *)

let test_linear_at_knots () =
  let t = I.linear xs ys in
  Array.iteri (fun i x -> check_close "knot" ys.(i) (I.eval t x)) xs

let test_linear_midpoint () =
  let t = I.linear xs ys in
  check_close "between 1 and 4" 2.5 (I.eval t 1.5)

let test_linear_extrapolation () =
  let t = I.linear [| 0.; 1. |] [| 0.; 2. |] in
  check_close "extrapolate right" 4. (I.eval t 2.);
  check_close "extrapolate left" (-2.) (I.eval t (-1.))

let test_pchip_monotone () =
  (* monotone data with a sharp corner: pchip must not overshoot *)
  let xs = [| 0.; 1.; 2.; 3.; 4. |] in
  let ys = [| 0.; 0.; 0.; 1.; 1. |] in
  let t = I.pchip xs ys in
  let samples = Array.init 101 (fun i -> float_of_int i /. 25.) in
  Array.iter
    (fun x ->
       let v = I.eval t x in
       check_in "no overshoot" ~lo:(-1e-12) ~hi:(1. +. 1e-12) v)
    samples;
  (* and monotone non-decreasing *)
  let prev = ref (I.eval t 0.) in
  Array.iter
    (fun x ->
       let v = I.eval t x in
       check_true "monotone" (v >= !prev -. 1e-12);
       prev := v)
    samples

let test_pchip_at_knots () =
  let t = I.pchip xs ys in
  Array.iteri (fun i x -> check_close "knot" ys.(i) (I.eval t x)) xs

let test_eval_array () =
  let t = I.linear xs ys in
  let out = I.eval_array t [| 0.5; 1.5 |] in
  check_close "0.5" 0.5 out.(0);
  check_close "1.5" 2.5 out.(1)

let test_knots_roundtrip () =
  let t = I.linear xs ys in
  let kx, ky = I.knots t in
  Alcotest.(check (array (float 0.))) "xs" xs kx;
  Alcotest.(check (array (float 0.))) "ys" ys ky

let test_validation () =
  Alcotest.check_raises "length mismatch" (Invalid_argument "Interp: length mismatch")
    (fun () -> ignore (I.linear [| 0.; 1. |] [| 0. |]));
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Interp: xs not strictly increasing") (fun () ->
      ignore (I.linear [| 0.; 0. |] [| 1.; 2. |]))

let prop_linear_between_bounds =
  prop "linear interpolant stays within segment bounds"
    QCheck2.Gen.(float_range 0. 3.)
    (fun x ->
       let t = I.linear xs ys in
       let v = I.eval t x in
       v >= -1e-9 && v <= 9. +. 1e-9)

let () =
  Alcotest.run "interp"
    [
      ( "interp",
        [
          case "linear at knots" test_linear_at_knots;
          case "linear midpoint" test_linear_midpoint;
          case "linear extrapolation" test_linear_extrapolation;
          case "pchip no overshoot" test_pchip_monotone;
          case "pchip at knots" test_pchip_at_knots;
          case "eval_array" test_eval_array;
          case "knots roundtrip" test_knots_roundtrip;
          case "input validation" test_validation;
          prop_linear_between_bounds;
        ] );
    ]
