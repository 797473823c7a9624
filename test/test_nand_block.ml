module Nb = Gnrflash_memory.Nand_block
module E = Gnrflash.Extensions
module D = Gnrflash_device
module F = Gnrflash_device.Fgt
open Gnrflash_testing.Testing

let block () = Nb.create F.paper_default ~pages:2 ~strings:4

(* Pinned from the record-based block stack this module replaced, taken
   as the first pulse work of a fresh process. The block owns its pulse
   engine, so the pin holds wherever the case runs. *)
let test_ext_f_golden () =
  let s = check_ok "demo" (E.nand_page_demo ()) in
  Alcotest.(check int) "pages written" 4 s.E.pages_written;
  Alcotest.(check int) "verify failures" 0 s.E.verify_failures;
  Alcotest.(check (float 0.)) "mean pulses" 4.0 s.E.mean_pulses;
  Alcotest.(check int64) "disturb dVT bits" 0x3ECDF0B692C3AEC9L
    (Int64.bits_of_float s.E.disturb_dvt_max)

let test_create () =
  let b = block () in
  Alcotest.(check int) "strings" 4 (Nb.strings b);
  Alcotest.(check int) "last page readable" 4 (Array.length (Nb.read_page b ~page:1));
  Alcotest.check_raises "two pages" (Invalid_argument "Nand_block: page out of range")
    (fun () -> ignore (Nb.read_page b ~page:2))

let test_create_validation () =
  Alcotest.check_raises "pages"
    (Invalid_argument "Nand_block.create: non-positive dimensions") (fun () ->
      ignore (Nb.create F.paper_default ~pages:0 ~strings:4));
  Alcotest.check_raises "strings"
    (Invalid_argument "Nand_block.create: non-positive dimensions") (fun () ->
      ignore (Nb.create F.paper_default ~pages:2 ~strings:0))

let test_coordinates_checked () =
  let bad_page = Invalid_argument "Nand_block: page out of range" in
  Alcotest.check_raises "dvt page" bad_page (fun () ->
      ignore (Nb.dvt (block ()) ~page:5 ~string_:0));
  Alcotest.check_raises "dvt string" (Invalid_argument "Nand_block: string out of range")
    (fun () -> ignore (Nb.dvt (block ()) ~page:0 ~string_:4));
  Alcotest.check_raises "read" bad_page (fun () ->
      ignore (Nb.read_page (block ()) ~page:(-1)));
  Alcotest.check_raises "program" bad_page (fun () ->
      ignore (Nb.program_page (block ()) ~page:2 ~data:[| 1; 1; 1; 1 |]))

let test_data_length_checked () =
  Alcotest.check_raises "length"
    (Invalid_argument "Nand_block.program_page: data length mismatch") (fun () ->
      ignore (Nb.program_page (block ()) ~page:0 ~data:[| 0 |]))

let test_fresh_block_erased () =
  let b = block () in
  for p = 0 to 1 do
    Alcotest.(check (array int)) "all erased" [| 1; 1; 1; 1 |] (Nb.read_page b ~page:p)
  done

let test_program_page_roundtrip () =
  let b = block () in
  let data = [| 0; 1; 0; 1 |] in
  check_ok "program" (Nb.program_page b ~page:0 ~data);
  check_true "verifies" (Nb.verify_page b ~page:0 ~data);
  Alcotest.(check (array int)) "pattern back" data (Nb.read_page b ~page:0)

let test_other_pages_untouched () =
  let b = block () in
  check_ok "program" (Nb.program_page b ~page:0 ~data:[| 0; 0; 0; 0 |]);
  Alcotest.(check (array int)) "other page still erased" [| 1; 1; 1; 1 |]
    (Nb.read_page b ~page:1)

let test_all_inhibit () =
  let b = block () in
  check_ok "program" (Nb.program_page b ~page:0 ~data:[| 1; 1; 1; 1 |]);
  Alcotest.(check (array int)) "still erased" [| 1; 1; 1; 1 |] (Nb.read_page b ~page:0);
  Alcotest.(check int) "no pulse, no exposure" 0 (Nb.stats b).Nb.disturb_events

let test_erase_block () =
  let b = block () in
  check_ok "p0" (Nb.program_page b ~page:0 ~data:[| 0; 0; 0; 0 |]);
  check_ok "p1" (Nb.program_page b ~page:1 ~data:[| 0; 1; 0; 1 |]);
  check_ok "erase" (Nb.erase_block b);
  for p = 0 to 1 do
    Alcotest.(check (array int)) "erased" [| 1; 1; 1; 1 |] (Nb.read_page b ~page:p)
  done

let test_stats_accumulate () =
  let b = block () in
  check_ok "p" (Nb.program_page b ~page:0 ~data:[| 0; 1; 1; 1 |]);
  let before = (Nb.stats b).Nb.reads in
  ignore (Nb.read_page b ~page:0 : int array);
  check_false "verify is not a read" (Nb.verify_page b ~page:0 ~data:[| 1; 1; 1; 1 |]);
  Alcotest.(check int) "read counter advances" (before + 1) (Nb.stats b).Nb.reads;
  check_ok "e" (Nb.erase_block b);
  let s = Nb.stats b in
  Alcotest.(check int) "programs" 1 s.Nb.programs;
  Alcotest.(check int) "erases" 1 s.Nb.erases;
  Alcotest.(check int) "no failures" 0 s.Nb.program_failures

let test_program_erase_cycles () =
  let b = block () in
  for _ = 1 to 3 do
    check_ok "program" (Nb.program_page b ~page:0 ~data:[| 0; 0; 1; 1 |]);
    check_ok "erase" (Nb.erase_block b)
  done;
  let s = Nb.stats b in
  Alcotest.(check int) "three programs" 3 s.Nb.programs;
  Alcotest.(check int) "three erases" 3 s.Nb.erases;
  Alcotest.(check (array int)) "ends erased" [| 1; 1; 1; 1 |] (Nb.read_page b ~page:0)

let test_program_failures_counted () =
  (* the bias ceiling sits far below the voltage the 2 V verify needs *)
  let ispp = { D.Ispp.default with D.Ispp.v_start = 4.; v_max = 5. } in
  let b = Nb.create ~ispp F.paper_default ~pages:1 ~strings:4 in
  check_ok "program" (Nb.program_page b ~page:0 ~data:[| 0; 1; 0; 1 |]);
  let s = Nb.stats b in
  Alcotest.(check int) "both programmed cells fail" 2 s.Nb.program_failures;
  Alcotest.(check int) "page still counted" 1 s.Nb.programs;
  check_false "does not verify" (Nb.verify_page b ~page:0 ~data:[| 0; 1; 0; 1 |])

let test_disturb_exposures () =
  let b = block () in
  let data = [| 0; 1; 0; 1 |] in
  check_ok "program" (Nb.program_page b ~page:0 ~data);
  let events = (Nb.stats b).Nb.disturb_events in
  check_true "exposures recorded" (events > 0);
  let drift = Nb.dvt b ~page:0 ~string_:1 in
  check_true "inhibited cell drifts" (drift > 0.);
  check_true "but stays erased" (Nb.verify_page b ~page:0 ~data);
  Alcotest.(check (float 0.)) "other word line unexposed" 0.
    (Nb.dvt b ~page:1 ~string_:1)

(* An inhibited cell takes exactly the charge Disturb.qfg_after_events
   gives for the page's ISPP pulse count from its charge before the
   program, read bit for bit through its threshold shift. Two programs of
   the same page start the second from the first's disturbed charge. *)
let test_disturb_matches_qfg_after_events () =
  let dev = F.paper_default in
  let config =
    D.Disturb.half_select ~vgs_program:D.Ispp.default.D.Ispp.v_start
      ~pulse_width:D.Ispp.default.D.Ispp.pulse_width
  in
  let b = Nb.create dev ~pages:2 ~strings:4 in
  let data = [| 0; 1; 0; 1 |] in
  let program qfg0 =
    let before = (Nb.stats b).Nb.disturb_events in
    check_ok "program" (Nb.program_page b ~page:0 ~data);
    let events = (Nb.stats b).Nb.disturb_events - before in
    let q = check_ok "disturb" (D.Disturb.qfg_after_events ~config dev ~qfg0 ~events) in
    Alcotest.(check int64) "inhibited charge bits"
      (Int64.bits_of_float (F.threshold_shift dev ~qfg:q))
      (Int64.bits_of_float (Nb.dvt b ~page:0 ~string_:3));
    (events, q)
  in
  let events1, q1 = program 0. in
  check_true "first program pulsed" (events1 > 0);
  check_true "first program disturbed" (q1 <> 0.);
  ignore (program q1 : int * float)

let test_wear_summary () =
  let b = block () in
  let mean0, fluence0, broken0 = Nb.wear_summary b in
  check_close "fresh mean" 0. mean0;
  check_close "fresh fluence" 0. fluence0;
  Alcotest.(check int) "none broken" 0 broken0;
  check_ok "program" (Nb.program_page b ~page:0 ~data:[| 0; 0; 1; 1 |]);
  let mean1, _, _ = Nb.wear_summary b in
  check_close "program charges no wear" 0. mean1;
  check_ok "erase" (Nb.erase_block b);
  check_ok "erase" (Nb.erase_block b);
  let mean2, fluence2, broken2 = Nb.wear_summary b in
  check_close "two cycles everywhere" 2. mean2;
  check_true "fluence accumulated" (fluence2 > 0.);
  Alcotest.(check int) "still none broken" 0 broken2

let () =
  Alcotest.run "nand_block"
    [
      ( "nand_block",
        [
          case "Ext F golden pin" test_ext_f_golden;
          case "create" test_create;
          case "create validation" test_create_validation;
          case "coordinate checking" test_coordinates_checked;
          case "data length checked" test_data_length_checked;
          case "fresh block erased" test_fresh_block_erased;
          case "program page roundtrip" test_program_page_roundtrip;
          case "other pages untouched" test_other_pages_untouched;
          case "all-inhibit pattern" test_all_inhibit;
          case "erase block" test_erase_block;
          case "stats accumulate" test_stats_accumulate;
          case "program/erase cycles" test_program_erase_cycles;
          case "program failures counted" test_program_failures_counted;
          case "disturb exposures counted" test_disturb_exposures;
          case "disturb matches qfg_after_events" test_disturb_matches_qfg_after_events;
          case "wear summary" test_wear_summary;
        ] );
    ]
