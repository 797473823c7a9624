module Cell = Gnrflash_memory.Cell
module F = Gnrflash_device.Fgt
module Rel = Gnrflash_device.Reliability
open Gnrflash_testing.Testing

let fresh () = Cell.make F.paper_default

(* a cold pulse engine per test: no test sees another's caches *)
let engine () = Gnrflash_device.Program_erase.engine F.paper_default

let test_fresh_cell () =
  let c = fresh () in
  check_close "no charge" 0. c.Cell.qfg;
  check_close "no shift" 0. (Cell.dvt c);
  check_true "reads erased" (Cell.read c = Cell.Erased);
  Alcotest.(check int) "bit 1" 1 (Cell.to_bit (Cell.read c))

let test_program_read () =
  let e = engine () in
  let c = check_ok "program" (Cell.program e (fresh ())) in
  check_true "stores electrons" (c.Cell.qfg < 0.);
  check_true "reads programmed" (Cell.read c = Cell.Programmed);
  Alcotest.(check int) "bit 0" 0 (Cell.to_bit (Cell.read c));
  check_true "state classification" (Cell.For_testing.state c = Cell.Programmed)

let test_erase_restores () =
  let e = engine () in
  let c = check_ok "program" (Cell.program e (fresh ())) in
  let c = check_ok "erase" (Cell.erase e c) in
  check_true "reads erased again" (Cell.read c = Cell.Erased)

let test_wear_accumulates () =
  let e = engine () in
  let c = check_ok "program" (Cell.program e (fresh ())) in
  let c = check_ok "erase" (Cell.erase e c) in
  Alcotest.(check int) "two pulses recorded" 2 c.Cell.wear.Rel.cycles;
  check_true "fluence positive" (c.Cell.wear.Rel.fluence > 0.)

let test_effective_vt_includes_drift () =
  let e = engine () in
  let c = check_ok "program" (Cell.program e (fresh ())) in
  let vt_stored = Gnrflash_device.Readout.threshold_voltage Gnrflash_device.Readout.default
      c.Cell.device ~qfg:c.Cell.qfg in
  check_true "wear adds drift" (Cell.For_testing.effective_vt c >= vt_stored)

let test_broken_cell_rejects_program () =
  let c = fresh () in
  let broken =
    { c with Cell.wear = { Rel.fresh with Rel.broken = true } }
  in
  check_error "broken oxide" (Cell.program (engine ()) broken)

let test_custom_threshold () =
  let e = engine () in
  let c = check_ok "program" (Cell.program e (fresh ())) in
  (* very high decision level flips classification *)
  check_true "high threshold reads erased" (Cell.For_testing.state ~dvt_threshold:100. c = Cell.Erased)

let prop_program_erase_roundtrip =
  prop "program/erase returns to erased" ~count:3 QCheck2.Gen.(return ()) (fun () ->
      let e = engine () in
      match Cell.program e (fresh ()) with
      | Error _ -> false
      | Ok c ->
        (match Cell.erase e c with
         | Error _ -> false
         | Ok c -> Cell.read c = Cell.Erased))

let () =
  Alcotest.run "cell"
    [
      ( "cell",
        [
          case "fresh cell" test_fresh_cell;
          case "program and read" test_program_read;
          case "erase restores" test_erase_restores;
          case "wear accumulates" test_wear_accumulates;
          case "effective VT drift" test_effective_vt_includes_drift;
          case "broken oxide rejected" test_broken_cell_rejects_program;
          case "custom threshold" test_custom_threshold;
          prop_program_erase_roundtrip;
        ] );
    ]
