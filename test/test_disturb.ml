module D = Gnrflash_device.Disturb
module F = Gnrflash_device.Fgt
open Gnrflash_testing.Testing

let t = F.paper_default

(* threshold drift after [events] disturb pulses: the victim's charge from
   [qfg_after_events], read through the FGT threshold shift *)
let drift ?config t ~qfg0 ~events =
  Result.map (fun qfg -> F.threshold_shift t ~qfg)
    (D.qfg_after_events ?config t ~qfg0 ~events)

let test_half_select () =
  let c = D.half_select ~vgs_program:15. ~pulse_width:10e-6 in
  check_close "half bias" 7.5 c.D.v_disturb;
  check_close "width" 10e-6 c.D.pulse_width

let test_zero_events_no_drift () =
  let dvt = check_ok "none" (drift t ~qfg0:0. ~events:0) in
  check_close "no drift" 0. dvt

let test_drift_grows_with_events () =
  let d n = check_ok "drift" (drift t ~qfg0:0. ~events:n) in
  let d10 = d 10 and d1000 = d 1000 in
  check_true "monotone" (d1000 >= d10);
  check_true "some disturb at VGS/2" (d1000 > 0.)

let test_disturb_much_slower_than_program () =
  (* at VGS/2 = 7.5 V the field is 9 MV/cm vs 18 MV/cm: the exponential makes
     the disturb rate many orders slower *)
  let dvt_disturb = check_ok "disturb" (drift t ~qfg0:0. ~events:1) in
  let config_full = { D.v_disturb = 15.; pulse_width = 10e-6 } in
  let dvt_full =
    check_ok "full bias" (drift ~config:config_full t ~qfg0:0. ~events:1)
  in
  check_true "disturb shift far smaller" (dvt_disturb < dvt_full /. 50.)

let test_negative_events_rejected () =
  check_error "negative" (drift t ~qfg0:0. ~events:(-1))

let () =
  Alcotest.run "disturb"
    [
      ( "disturb",
        [
          case "half-select scheme" test_half_select;
          case "zero events" test_zero_events_no_drift;
          case "drift grows" test_drift_grows_with_events;
          case "disturb << program" test_disturb_much_slower_than_program;
          case "negative events" test_negative_events_rejected;
        ] );
    ]
