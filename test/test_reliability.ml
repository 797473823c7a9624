module Rel = Gnrflash_device.Reliability
open Gnrflash_testing.Testing

let m = Rel.default

let test_qbd_field_acceleration () =
  (* a decade of Q_BD per 2.5 MV/cm by construction *)
  let q10 = Rel.qbd m ~field:1e9 in
  let q125 = Rel.qbd m ~field:1.25e9 in
  check_close ~tol:1e-9 "decade per 2.5 MV/cm" 10. (q10 /. q125);
  check_close ~tol:1e-3 "calibrated at 10 MV/cm" 1e6 q10;
  (* the paper's 18 MV/cm programming field: ~1e4-cycle-class oxide *)
  check_in "paper field Q_BD" ~lo:1e2 ~hi:1e4 (Rel.qbd m ~field:1.8e9)

let test_qbd_validation () =
  Alcotest.check_raises "field" (Invalid_argument "Reliability.qbd: field <= 0")
    (fun () -> ignore (Rel.qbd m ~field:0.))

let test_fresh () =
  check_close "no fluence" 0. Rel.fresh.Rel.fluence;
  check_false "not broken" Rel.fresh.Rel.broken;
  Alcotest.(check int) "no cycles" 0 Rel.fresh.Rel.cycles

let test_after_pulse_accumulates () =
  let area = 1e-15 in
  let w1 = Rel.after_pulse m Rel.fresh ~injected:1e-17 ~area ~field:1e9 in
  let w2 = Rel.after_pulse m w1 ~injected:1e-17 ~area ~field:1e9 in
  check_close ~tol:1e-9 "fluence adds" (2. *. 1e-17 /. area) w2.Rel.fluence;
  Alcotest.(check int) "cycles count" 2 w2.Rel.cycles;
  check_true "traps grow" (w2.Rel.traps > w1.Rel.traps)

let test_breakdown_trips () =
  let area = 1e-15 in
  let field = 1e9 in
  let qbd = Rel.qbd m ~field in
  (* one pulse carrying more than QBD *)
  let w = Rel.after_pulse m Rel.fresh ~injected:(qbd *. area *. 1.01) ~area ~field in
  check_true "broken" w.Rel.broken;
  (* breakdown is latched *)
  let w' = Rel.after_pulse m w ~injected:0. ~area ~field in
  check_true "stays broken" w'.Rel.broken

let test_vt_drift () =
  let area = 1e-15 in
  let w = Rel.after_pulse m Rel.fresh ~injected:1e-16 ~area ~field:1e9 in
  let drift = Rel.For_testing.vt_drift m w in
  check_true "positive drift" (drift > 0.);
  (* doubling fluence doubles drift *)
  let w2 = Rel.after_pulse m w ~injected:1e-16 ~area ~field:1e9 in
  check_close ~tol:1e-9 "linear drift" (2. *. drift) (Rel.For_testing.vt_drift m w2)

let test_endurance_cycles () =
  let n = Rel.endurance_cycles m ~charge_per_cycle:5e-17 ~area:1e-15 ~field:1e9 in
  check_true "many cycles" (n > 1e2);
  (* higher field shortens life *)
  let n_hi = Rel.endurance_cycles m ~charge_per_cycle:5e-17 ~area:1e-15 ~field:1.4e9 in
  check_true "field acceleration" (n_hi < n)

let test_endurance_validation () =
  Alcotest.check_raises "charge" (Invalid_argument "Reliability.endurance_cycles: charge <= 0")
    (fun () -> ignore (Rel.endurance_cycles m ~charge_per_cycle:0. ~area:1e-15 ~field:1e9))

let prop_qbd_monotone_decreasing =
  prop "Q_BD decreasing in field" QCheck2.Gen.(float_range 4e8 1.6e9) (fun e ->
      Rel.qbd m ~field:(e *. 1.1) < Rel.qbd m ~field:e)

let prop_fluence_never_decreases =
  prop "wear accumulates monotonically" QCheck2.Gen.(float_range 0. 1e-16)
    (fun injected ->
       let w = Rel.after_pulse m Rel.fresh ~injected ~area:1e-15 ~field:1e9 in
       w.Rel.fluence >= 0. && w.Rel.traps >= 0.)

let () =
  Alcotest.run "reliability"
    [
      ( "reliability",
        [
          case "Q_BD field acceleration" test_qbd_field_acceleration;
          case "Q_BD validation" test_qbd_validation;
          case "fresh wear" test_fresh;
          case "pulse accumulation" test_after_pulse_accumulates;
          case "breakdown trips and latches" test_breakdown_trips;
          case "VT drift" test_vt_drift;
          case "endurance cycles" test_endurance_cycles;
          case "endurance validation" test_endurance_validation;
          prop_qbd_monotone_decreasing;
          prop_fluence_never_decreases;
        ] );
    ]
