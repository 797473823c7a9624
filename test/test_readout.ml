module R = Gnrflash_device.Readout
module F = Gnrflash_device.Fgt
open Gnrflash_testing.Testing

let t = F.paper_default
let config = R.default

let test_threshold_voltage () =
  check_close "neutral VT" config.R.vt0 (R.threshold_voltage config t ~qfg:0.);
  let q = F.qfg_for_threshold_shift t ~dvt:2. in
  check_close ~tol:1e-9 "shifted VT" (config.R.vt0 +. 2.) (R.threshold_voltage config t ~qfg:q)

let test_is_programmed () =
  (* a cell reads programmed ('0') when it does not conduct at VREAD *)
  check_true "neutral reads erased" (R.read_current config t ~qfg:0. > 0.);
  let q = F.qfg_for_threshold_shift t ~dvt:5. in
  check_true "heavily charged reads programmed" (R.read_current config t ~qfg:q = 0.)

let test_read_current_on () =
  let i_on = R.read_current config t ~qfg:0. in
  check_true "on current flows" (i_on > 0.);
  (* Landauer with a handful of channels at 50 mV: microamp scale *)
  check_in "physical magnitude" ~lo:1e-9 ~hi:1e-3 i_on

let test_read_current_off () =
  let q = F.qfg_for_threshold_shift t ~dvt:5. in
  check_close "cutoff" 0. (R.read_current config t ~qfg:q)

let test_read_window () =
  let q = F.qfg_for_threshold_shift t ~dvt:5. in
  (* erased / programmed current, the programmed one clamped to 1 fA *)
  let w = R.read_current config t ~qfg:0. /. max (R.read_current config t ~qfg:q) 1e-15 in
  check_true "large on/off window" (w > 1e3)

let test_partial_shift_reduces_current () =
  (* the Landauer channel count is quantized, so a partial shift reduces the
     current in steps: still conducting, never increased *)
  let q1 = F.qfg_for_threshold_shift t ~dvt:0.5 in
  let i0 = R.read_current config t ~qfg:0. in
  let i1 = R.read_current config t ~qfg:q1 in
  check_true "still conducting" (i1 > 0.);
  check_true "not increased" (i1 <= i0)

let prop_current_nonincreasing_in_shift =
  prop "read current non-increasing in dVT" QCheck2.Gen.(float_range 0. 4.)
    (fun dvt ->
       let q1 = F.qfg_for_threshold_shift t ~dvt in
       let q2 = F.qfg_for_threshold_shift t ~dvt:(dvt +. 0.3) in
       R.read_current config t ~qfg:q2 <= R.read_current config t ~qfg:q1 +. 1e-15)

let () =
  Alcotest.run "readout"
    [
      ( "readout",
        [
          case "threshold voltage" test_threshold_voltage;
          case "programmed classification" test_is_programmed;
          case "on current" test_read_current_on;
          case "off current" test_read_current_off;
          case "read window" test_read_window;
          case "partial shift" test_partial_shift_reduces_current;
          prop_current_nonincreasing_in_shift;
        ] );
    ]
