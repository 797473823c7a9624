module Dt = Gnrflash_quantum.Direct_tunneling
module Fn = Gnrflash_quantum.Fn
open Gnrflash_testing.Testing

let p = Fn.coefficients ~phi_b_ev:3.2 ~m_ox_rel:0.42

let test_zero_bias () =
  check_close "no bias no current" 0. (Dt.current_density p ~v_ox:0. ~thickness:3e-9)

let test_reduces_to_fn_above_barrier () =
  (* v_ox >= phi: exactly the FN expression at the same field *)
  let v_ox = 4.0 and thickness = 5e-9 in
  let j_dt = Dt.current_density p ~v_ox ~thickness in
  let j_fn = Fn.current_density p ~field:(v_ox /. thickness) in
  check_close ~tol:1e-12 "FN limit" j_fn j_dt

let test_exceeds_fn_below_barrier () =
  (* in the direct regime the trapezoid is thinner than the FN triangle
     extrapolation assumes, so J_direct > J_FN at the same field *)
  let v_ox = 1.5 and thickness = 3e-9 in
  let j_dt = Dt.current_density p ~v_ox ~thickness in
  let j_fn = Fn.current_density p ~field:(v_ox /. thickness) in
  check_true "direct exceeds FN extrapolation" (j_dt > j_fn)

let test_ratio_to_fn () =
  (* J_direct / J_FN at the same field *)
  let ratio ~v_ox ~thickness =
    Dt.current_density p ~v_ox ~thickness
    /. Fn.current_density p ~field:(v_ox /. thickness)
  in
  check_true "ratio > 1 in direct regime" (ratio ~v_ox:1.5 ~thickness:3e-9 > 1.);
  check_close "ratio 1 in FN regime" 1. (ratio ~v_ox:4.0 ~thickness:5e-9)

let test_continuity_at_barrier_voltage () =
  (* the piecewise expression must be continuous at v_ox = phi_b *)
  let thickness = 5e-9 in
  let below = Dt.current_density p ~v_ox:(3.2 -. 1e-9) ~thickness in
  let above = Dt.current_density p ~v_ox:(3.2 +. 1e-9) ~thickness in
  check_close ~tol:1e-6 "continuous at phi" above below

let test_thickness_validation () =
  Alcotest.check_raises "thickness" (Invalid_argument "Direct_tunneling: thickness <= 0")
    (fun () -> ignore (Dt.current_density p ~v_ox:1. ~thickness:0.))

let test_thin_oxide_dominates () =
  (* same voltage across thinner oxide -> much more current *)
  let j3 = Dt.current_density p ~v_ox:1. ~thickness:3e-9 in
  let j5 = Dt.current_density p ~v_ox:1. ~thickness:5e-9 in
  check_true "thinner wins" (j3 > j5 *. 100.)

let prop_monotone_in_vox =
  prop "J increasing in v_ox"
    QCheck2.Gen.(pair (float_range 0.1 3.0) (float_range 0.05 0.5))
    (fun (v, dv) ->
       let j1 = Dt.current_density p ~v_ox:v ~thickness:4e-9 in
       let j2 = Dt.current_density p ~v_ox:(v +. dv) ~thickness:4e-9 in
       j2 > j1)

let prop_nonnegative =
  prop "J non-negative"
    QCheck2.Gen.(pair (float_range (-1.) 4.) (float_range 1e-9 8e-9))
    (fun (v, t) -> Dt.current_density p ~v_ox:v ~thickness:t >= 0.)

let () =
  Alcotest.run "direct_tunneling"
    [
      ( "direct_tunneling",
        [
          case "zero bias" test_zero_bias;
          case "FN limit" test_reduces_to_fn_above_barrier;
          case "exceeds FN below barrier" test_exceeds_fn_below_barrier;
          case "ratio to FN" test_ratio_to_fn;
          case "continuity at phi" test_continuity_at_barrier_voltage;
          case "validation" test_thickness_validation;
          case "thickness dependence" test_thin_oxide_dominates;
          prop_monotone_in_vox;
          prop_nonnegative;
        ] );
    ]
