module I = Gnrflash_numerics.Interp
open Gnrflash_testing.Testing

let xs = [| 0.; 1.; 2.; 3. |]
let ys = [| 0.; 1.; 4.; 9. |] (* x^2 at the knots *)

let test_linear_extrapolation () =
  (* a two-knot pchip is the line through its knots, so this checks
     extrapolation along the boundary segment on both sides *)
  let t = I.pchip [| 0.; 1. |] [| 0.; 2. |] in
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

let test_validation () =
  Alcotest.check_raises "length mismatch" (Invalid_argument "Interp: length mismatch")
    (fun () -> ignore (I.pchip [| 0.; 1. |] [| 0. |]));
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Interp: xs not strictly increasing") (fun () ->
      ignore (I.pchip [| 0.; 0. |] [| 1.; 2. |]))

let () =
  Alcotest.run "interp"
    [
      ( "interp",
        [
          case "linear extrapolation" test_linear_extrapolation;
          case "pchip no overshoot" test_pchip_monotone;
          case "pchip at knots" test_pchip_at_knots;
          case "input validation" test_validation;
        ] );
    ]
