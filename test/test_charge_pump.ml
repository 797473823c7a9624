module P = Gnrflash_device.Charge_pump
open Gnrflash_testing.Testing

let pump = P.make ~v_dd:1.8 ~stages:12

let test_open_circuit_voltage () =
  (* V = Vdd + N(Vdd - Vd) - Vd = 1.8 + 12*1.5 - 0.3 = 19.5 V *)
  check_close ~tol:1e-9 "unloaded output" 19.5 (P.For_testing.output_voltage pump ~i_load:0.)

let test_load_droop () =
  let v0 = P.For_testing.output_voltage pump ~i_load:0. in
  let v1 = P.For_testing.output_voltage pump ~i_load:1e-6 in
  check_true "droops under load" (v1 < v0);
  (* droop = N * I/(fC) = 12 * 1e-6/(20e6*1e-12) = 0.6 V *)
  check_close ~tol:1e-6 "droop magnitude" 0.6 (v0 -. v1)

let test_make_validation () =
  Alcotest.check_raises "bad vdd" (Invalid_argument "Charge_pump.make: non-positive parameter")
    (fun () -> ignore (P.make ~v_dd:0. ~stages:4))

let test_stages_for_paper_bias () =
  (* reaching 15 V for the paper's programming from a 1.8 V supply *)
  let n = P.stages_for pump ~v_target:15. ~i_load:1e-9 in
  check_in "stage count sane" ~lo:8. ~hi:14. (float_of_int n);
  (* and the resulting pump really reaches it *)
  let sized = { pump with P.stages = n } in
  check_true "reaches target" (P.For_testing.output_voltage sized ~i_load:1e-9 >= 15.)

let test_stages_for_unreachable () =
  Alcotest.check_raises "load too heavy"
    (Invalid_argument "Charge_pump.stages_for: pump cannot source this load") (fun () ->
      ignore (P.stages_for pump ~v_target:15. ~i_load:1. ))

let test_energy_per_program () =
  let e = P.energy_per_program pump ~i_load:1e-9 ~pulse_width:10e-6 in
  (* (N+1) * I * Vdd * t = 13 * 1e-9 * 1.8 * 1e-5 = 2.34e-13 J *)
  check_close ~tol:1e-9 "supply energy" 2.34e-13 e

let prop_voltage_monotone_in_stages =
  prop "more stages, more volts" QCheck2.Gen.(int_range 1 30) (fun n ->
      let p1 = P.make ~v_dd:1.8 ~stages:n in
      let p2 = P.make ~v_dd:1.8 ~stages:(n + 1) in
      P.For_testing.output_voltage p2 ~i_load:1e-9
      > P.For_testing.output_voltage p1 ~i_load:1e-9)

let () =
  Alcotest.run "charge_pump"
    [
      ( "charge_pump",
        [
          case "open-circuit voltage" test_open_circuit_voltage;
          case "load droop" test_load_droop;
          case "validation" test_make_validation;
          case "stages for 15 V" test_stages_for_paper_bias;
          case "unreachable load" test_stages_for_unreachable;
          case "energy per program" test_energy_per_program;
          prop_voltage_monotone_in_stages;
        ] );
    ]
