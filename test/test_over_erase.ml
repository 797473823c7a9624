module O = Gnrflash_memory.Over_erase
module Cell = Gnrflash_memory.Cell
module F = Gnrflash_device.Fgt
open Gnrflash_testing.Testing

let fresh () = Cell.make F.paper_default
let engine () = Gnrflash_device.Program_erase.engine F.paper_default

let deeply_erased e =
  (* a full erase drives the symmetric device to dVT ~ -6.7 V *)
  check_ok "erase" (Cell.erase e (fresh ()))

let test_detection () =
  check_false "fresh cell fine" (O.is_over_erased (fresh ()));
  check_true "erased cell over-erased" (O.is_over_erased (deeply_erased (engine ())))

let test_recover_noop_in_window () =
  let c, pulses = check_ok "recover" (O.recover (engine ()) (fresh ())) in
  Alcotest.(check int) "no pulses needed" 0 pulses;
  check_close "unchanged" 0. c.Cell.qfg

let test_recover_over_erased () =
  let e = engine () in
  let c = deeply_erased e in
  let recovered, pulses = check_ok "recover" (O.recover e c) in
  check_true "used pulses" (pulses > 0);
  let dvt = Cell.dvt recovered in
  check_in "back in the window" ~lo:O.default.O.verify_low ~hi:O.default.O.verify_high dvt

let test_erase_with_recovery () =
  let e = engine () in
  let programmed = check_ok "program" (Cell.program e (fresh ())) in
  (* the erase pulse, then soft-program recovery *)
  let erased = check_ok "erase" (Cell.erase e programmed) in
  let c, pulses = check_ok "flow" (O.recover e erased) in
  check_true "soft pulses applied" (pulses > 0);
  check_in "erase verify window" ~lo:O.default.O.verify_low ~hi:O.default.O.verify_high
    (Cell.dvt c);
  check_true "cell reads erased" (Cell.read c = Cell.Erased)

let test_budget_exhaustion () =
  (* a tiny pulse budget cannot climb out of deep over-erase *)
  let config = { O.default with O.max_pulses = 1; soft_width = 1e-12 } in
  let e = engine () in
  check_error "budget" (O.recover ~config e (deeply_erased e))

let () =
  Alcotest.run "over_erase"
    [
      ( "over_erase",
        [
          case "detection" test_detection;
          case "no-op in window" test_recover_noop_in_window;
          case "recovers over-erased cell" test_recover_over_erased;
          case "full erase flow" test_erase_with_recovery;
          case "budget exhaustion" test_budget_exhaustion;
        ] );
    ]
