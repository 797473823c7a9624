module Ret = Gnrflash_device.Retention
module F = Gnrflash_device.Fgt
open Gnrflash_testing.Testing

let t = F.paper_default
let qfg0 = F.qfg_for_threshold_shift t ~dvt:2.

let test_simulate_shape () =
  let s = Ret.simulate t ~qfg0 ~t_start:1e-3 ~t_end:1e6 in
  check_true "many samples" (Array.length s > 50);
  check_true "times increasing"
    (Array.for_all (fun x -> x) (Array.init (Array.length s - 1)
       (fun i -> s.(i + 1).Ret.time > s.(i).Ret.time)))

let test_charge_decays_monotonically () =
  let s = Ret.simulate t ~qfg0 ~t_start:1e-3 ~t_end:1e8 in
  for i = 0 to Array.length s - 2 do
    (* qfg negative, decaying toward zero: non-decreasing *)
    check_true "monotone decay" (s.(i + 1).Ret.qfg >= s.(i).Ret.qfg -. 1e-30)
  done;
  check_true "never crosses zero" (Array.for_all (fun x -> x.Ret.qfg <= 0.) s)

let test_dvt_tracks_charge () =
  let s = Ret.simulate t ~qfg0 ~t_start:1e-3 ~t_end:1e4 in
  Array.iter
    (fun x -> check_close ~tol:1e-9 "dvt consistent" (F.threshold_shift t ~qfg:x.Ret.qfg) x.Ret.dvt)
    s

let test_ten_year_retention_of_paper_cell () =
  (* 5 nm oxide with a ~1.2 V self-field: direct tunneling leakage is small;
     the paper-default cell must hold charge for 10 years *)
  let lost = Ret.charge_loss_percent t ~qfg0 ~after:(Gnrflash_physics.Units.years 10.) in
  check_true "10-year spec: at most 20 % lost" (lost <= 20.)

let test_loss_increases_with_time () =
  let l1 = Ret.charge_loss_percent t ~qfg0 ~after:1e4 in
  let l2 = Ret.charge_loss_percent t ~qfg0 ~after:1e8 in
  check_true "monotone loss" (l2 >= l1);
  check_in "bounded" ~lo:0. ~hi:100. l2

let test_thin_oxide_leaks_faster () =
  let thin = F.with_xto t 2e-9 in
  let q_thin = F.qfg_for_threshold_shift thin ~dvt:2. in
  let loss_thin = Ret.charge_loss_percent thin ~qfg0:q_thin ~after:1e6 in
  let loss_thick = Ret.charge_loss_percent t ~qfg0 ~after:1e6 in
  check_true "2 nm leaks more than 5 nm" (loss_thin > loss_thick)

let test_temperature_acceleration () =
  let s300 = Ret.simulate ~temp:300. t ~qfg0 ~t_start:1e-3 ~t_end:1e6 in
  let s400 = Ret.simulate ~temp:400. t ~qfg0 ~t_start:1e-3 ~t_end:1e6 in
  let last a = a.(Array.length a - 1).Ret.qfg in
  check_true "hotter leaks at least as much" (last s400 >= last s300 -. 1e-30)

let test_validation () =
  Alcotest.check_raises "positive charge"
    (Invalid_argument "Retention.simulate: qfg0 must be negative (programmed)")
    (fun () -> ignore (Ret.simulate t ~qfg0:1e-18 ~t_start:1e-3 ~t_end:1.));
  Alcotest.check_raises "bad range"
    (Invalid_argument "Retention.simulate: bad time range") (fun () ->
      ignore (Ret.simulate t ~qfg0 ~t_start:1. ~t_end:0.5))

let test_retention_time_criterion () =
  let time = Ret.retention_time t ~qfg0 ~criterion:0.8 in
  check_true "positive or infinite" (time > 0.)

let test_retention_time_validation () =
  Alcotest.check_raises "criterion"
    (Invalid_argument "Retention.retention_time: criterion out of (0, 1)") (fun () ->
      ignore (Ret.retention_time t ~qfg0 ~criterion:1.5))

let () =
  Alcotest.run "retention"
    [
      ( "retention",
        [
          case "trajectory shape" test_simulate_shape;
          case "monotone decay" test_charge_decays_monotonically;
          case "dvt consistency" test_dvt_tracks_charge;
          case "10-year spec (paper cell)" test_ten_year_retention_of_paper_cell;
          case "loss grows with time" test_loss_increases_with_time;
          case "thin oxide leaks faster" test_thin_oxide_leaks_faster;
          case "temperature acceleration" test_temperature_acceleration;
          case "input validation" test_validation;
          case "retention time" test_retention_time_criterion;
          case "criterion validation" test_retention_time_validation;
        ] );
    ]
