module I = Gnrflash_device.Ispp
module F = Gnrflash_device.Fgt
open Gnrflash_testing.Testing

let t = F.paper_default

(* a cold pulse engine per ISPP run *)
let engine () = Gnrflash_device.Program_erase.engine t

let test_default_config () =
  check_close "start" 12. I.default.I.v_start;
  check_close "step" 0.5 I.default.I.v_step;
  check_close "target" 2. I.default.I.target_dvt

let test_reaches_target () =
  let r = check_ok "ispp" (I.run (engine ()) ~qfg0:0.) in
  check_true "passed" r.I.passed;
  check_true "used pulses" (r.I.pulses_used >= 1);
  match List.rev r.I.steps with
  | last :: _ -> check_true "target met" (last.I.dvt >= I.default.I.target_dvt)
  | [] -> Alcotest.fail "no steps recorded"

let test_dvt_monotone_over_pulses () =
  let r = check_ok "ispp" (I.run (engine ()) ~qfg0:0.) in
  let rec check_list = function
    | a :: (b :: _ as rest) ->
      check_true "monotone staircase" (b.I.dvt >= a.I.dvt -. 1e-9);
      check_list rest
    | _ -> ()
  in
  check_list r.I.steps

let test_vgs_staircase () =
  let r = check_ok "ispp" (I.run (engine ()) ~qfg0:0.) in
  List.iteri
    (fun i s ->
       check_close ~tol:1e-12 "bias schedule"
         (I.default.I.v_start +. (float_of_int i *. I.default.I.v_step))
         s.I.vgs)
    r.I.steps

let test_fails_when_unreachable () =
  (* target far beyond the saturation window with a low abort voltage *)
  let config = { I.default with I.target_dvt = 50.; v_max = 13. } in
  let r = check_ok "ispp" (I.run ~config (engine ()) ~qfg0:0.) in
  check_false "cannot pass" r.I.passed

let test_higher_start_fewer_pulses () =
  let config_lo = { I.default with I.v_start = 11. } in
  let config_hi = { I.default with I.v_start = 14. } in
  let r_lo = check_ok "lo" (I.run ~config:config_lo (engine ()) ~qfg0:0.) in
  let r_hi = check_ok "hi" (I.run ~config:config_hi (engine ()) ~qfg0:0.) in
  check_true "higher start converges in fewer pulses"
    (r_hi.I.pulses_used <= r_lo.I.pulses_used)

let test_config_validation () =
  check_error "step"
    (I.run ~config:{ I.default with I.v_step = 0. } (engine ()) ~qfg0:0.);
  check_error "width"
    (I.run ~config:{ I.default with I.pulse_width = 0. } (engine ()) ~qfg0:0.)

let test_tail_increments () =
  let r = check_ok "ispp" (I.run (engine ()) ~qfg0:0.) in
  let incs = I.For_testing.dvt_per_pulse_tail r in
  (* in steady state the staircase increment approaches v_step *)
  match List.rev incs with
  | last :: _ -> check_in "increment near v_step" ~lo:0.05 ~hi:1.0 last
  | [] -> () (* single-pulse convergence is acceptable *)

let prop_target_monotone_in_pulses =
  prop "larger targets need at least as many pulses" ~count:4
    QCheck2.Gen.(float_range 0.5 2.)
    (fun dvt ->
       let run target =
         let config = { I.default with I.target_dvt = target } in
         match I.run ~config (engine ()) ~qfg0:0. with
         | Ok r -> r.I.pulses_used
         | Error _ -> max_int
       in
       run (dvt +. 1.) >= run dvt)

let () =
  Alcotest.run "ispp"
    [
      ( "ispp",
        [
          case "default config" test_default_config;
          case "reaches target" test_reaches_target;
          case "monotone staircase" test_dvt_monotone_over_pulses;
          case "bias schedule" test_vgs_staircase;
          case "unreachable target" test_fails_when_unreachable;
          case "start voltage tradeoff" test_higher_start_fewer_pulses;
          case "config validation" test_config_validation;
          case "tail increments" test_tail_increments;
          prop_target_monotone_in_pulses;
        ] );
    ]
