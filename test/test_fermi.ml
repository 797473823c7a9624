module F = Gnrflash_physics.Fermi
module C = Gnrflash_physics.Constants
open Gnrflash_testing.Testing

let ev = C.ev
let t300 = 300.

let test_supply_zero_bias () =
  check_abs ~tol:1e-25 "no bias, no net supply" 0.
    (F.supply_difference ~ef:(0.2 *. ev) ~t:t300 ~qv:0. (0.1 *. ev))

let test_supply_positive_bias () =
  let n = F.supply_difference ~ef:(0.2 *. ev) ~t:t300 ~qv:(1. *. ev) (0.05 *. ev) in
  check_true "forward supply positive" (n > 0.)

let test_supply_degenerate_limit () =
  (* for E << EF and large qV: N ~ EF - E *)
  let ef = 0.5 *. ev in
  let e = 0.1 *. ev in
  let n = F.supply_difference ~ef ~t:t300 ~qv:(5. *. ev) e in
  check_close ~tol:2e-2 "degenerate supply" (ef -. e) n

let test_boltzmann_limit () =
  (* far above EF, under a drop that empties the far side, the supply
     falls to the Maxwell-Boltzmann tail kT exp(-(E - EF)/kT) *)
  let e = 0.6 *. ev and ef = 0.1 *. ev in
  let kt = C.k_b *. t300 in
  let mb = kt *. exp (-.(e -. ef) /. kt) in
  check_close ~tol:1e-8 "non-degenerate limit" mb
    (F.supply_difference ~ef ~t:t300 ~qv:(5. *. ev) e)

let test_supply_no_overflow () =
  (* at 1 mK every exponent is thousands of kT: below EF the supply is the
     whole drop, far above it nothing, and neither overflows *)
  let t = 1e-3 in
  let below = F.supply_difference ~ef:(0.5 *. ev) ~t ~qv:(0.2 *. ev) (0.1 *. ev) in
  check_true "finite" (Float.is_finite below);
  check_close ~tol:1e-9 "full drop" (0.2 *. ev) below;
  check_abs ~tol:1e-300 "zero" 0.
    (F.supply_difference ~ef:0. ~t ~qv:(0.2 *. ev) (10. *. ev))

let prop_supply_nonneg_forward =
  prop "supply non-negative under forward bias"
    QCheck2.Gen.(pair (float_range 0. 1.) (float_range 0. 2.))
    (fun (e_ev, qv_ev) ->
       F.supply_difference ~ef:(0.3 *. ev) ~t:t300 ~qv:(qv_ev *. ev) (e_ev *. ev)
       >= -1e-30)

let () =
  Alcotest.run "fermi"
    [
      ( "fermi",
        [
          case "no overflow" test_supply_no_overflow;
          case "boltzmann limit" test_boltzmann_limit;
          case "supply zero bias" test_supply_zero_bias;
          case "supply forward bias" test_supply_positive_bias;
          case "supply degenerate" test_supply_degenerate_limit;
          prop_supply_nonneg_forward;
        ] );
    ]
