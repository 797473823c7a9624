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

let test_events_to_failure_finds_crossing () =
  (* pick a failure level the 7.5 V disturb can actually reach *)
  match check_ok "etf" (D.events_to_failure t ~qfg0:0. ~dvt_fail:0.05 ~max_events:(1 lsl 20)) with
  | None -> Alcotest.fail "expected failure within budget"
  | Some n ->
    check_true "positive" (n >= 1);
    (* verify the crossing: n events reach the level, fewer do not *)
    let at = check_ok "at" (drift t ~qfg0:0. ~events:n) in
    check_true "reaches level" (at >= 0.05);
    if n > 1 then begin
      let before = check_ok "before" (drift t ~qfg0:0. ~events:(n - 1)) in
      check_true "tight crossing" (before < 0.05)
    end

let test_events_to_failure_none () =
  (* a fail level above the disturb-bias saturation window is unreachable *)
  let r = check_ok "etf" (D.events_to_failure t ~qfg0:0. ~dvt_fail:10. ~max_events:1024) in
  check_true "unreachable" (r = None)

let test_events_to_failure_validation () =
  check_error "bad level" (D.events_to_failure t ~qfg0:0. ~dvt_fail:0. ~max_events:10)

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
          case "events-to-failure crossing" test_events_to_failure_finds_crossing;
          case "unreachable failure" test_events_to_failure_none;
          case "validation" test_events_to_failure_validation;
        ] );
    ]
