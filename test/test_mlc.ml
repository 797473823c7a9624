module M = Gnrflash_memory.Mlc
module F = Gnrflash_device.Fgt
open Gnrflash_testing.Testing

let t = F.paper_default
let engine () = Gnrflash_device.Program_erase.engine t

let test_levels () =
  Alcotest.(check int) "mlc 4 levels" 4 (M.levels M.default_mlc);
  Alcotest.(check int) "tlc 8 levels" 8 (M.levels M.default_tlc)

let test_targets () =
  check_close "level 0 erased" 0. (M.target_dvt M.default_mlc ~level:0);
  check_close "level 1" 1.5 (M.target_dvt M.default_mlc ~level:1);
  check_close "level 2" 3.0 (M.target_dvt M.default_mlc ~level:2);
  check_close "level 3" 4.5 (M.target_dvt M.default_mlc ~level:3);
  Alcotest.check_raises "range" (Invalid_argument "Mlc.target_dvt: level out of range")
    (fun () -> ignore (M.target_dvt M.default_mlc ~level:4))

let test_gray_code () =
  Alcotest.(check (list int)) "first eight"
    [ 0; 1; 3; 2; 6; 7; 5; 4 ]
    (List.init 8 M.gray_encode);
  for n = 0 to 63 do
    Alcotest.(check int) "roundtrip" n (M.For_testing.gray_decode (M.gray_encode n))
  done

let test_gray_adjacent_one_bit () =
  for n = 0 to 30 do
    let diff = M.gray_encode n lxor M.gray_encode (n + 1) in
    (* exactly one bit set *)
    check_true "one bit flips between adjacent levels" (diff land (diff - 1) = 0 && diff <> 0)
  done

let test_level_bits_roundtrip () =
  let c = M.default_mlc in
  for level = 0 to 3 do
    let bits = M.level_to_bits c level in
    Alcotest.(check int) "width" 2 (Array.length bits);
    Alcotest.(check int) "roundtrip" level (M.For_testing.bits_to_level c bits)
  done

let test_level_bits_convention () =
  (* erased level stores all-ones ("11") after Gray coding? level 0 -> gray 0
     -> bits 00; production MLC maps erased to 11 — we document the direct
     Gray convention and just pin it here *)
  Alcotest.(check (array int)) "level 0" [| 0; 0 |] (M.level_to_bits M.default_mlc 0);
  Alcotest.(check (array int)) "level 1" [| 0; 1 |] (M.level_to_bits M.default_mlc 1);
  Alcotest.(check (array int)) "level 2" [| 1; 1 |] (M.level_to_bits M.default_mlc 2);
  Alcotest.(check (array int)) "level 3" [| 1; 0 |] (M.level_to_bits M.default_mlc 3)

let test_program_and_read_all_levels () =
  let e = engine () in
  for level = 0 to 3 do
    let qfg, pulses = check_ok "program" (M.program_level e ~qfg0:0. ~level) in
    let got = M.read_level t ~qfg in
    Alcotest.(check int) (Printf.sprintf "level %d read back" level) level got;
    if level = 0 then Alcotest.(check int) "erased is free" 0 pulses
    else check_true "programming used pulses" (pulses > 0)
  done

let test_placement_accuracy () =
  let e = engine () in
  for level = 1 to 3 do
    let qfg, _ = check_ok "program" (M.program_level e ~qfg0:0. ~level) in
    let dvt = F.threshold_shift t ~qfg in
    let target = M.target_dvt M.default_mlc ~level in
    (* ISPP places within one step above the verify level *)
    check_in
      (Printf.sprintf "level %d placement" level)
      ~lo:target ~hi:(target +. 0.75) dvt
  done

let test_read_margin () =
  let c = M.default_mlc in
  check_close "interior margin" 0.75 (M.read_margin c ~level:1);
  check_close "edge margin" 0.75 (M.read_margin c ~level:0);
  (* TLC packs tighter *)
  check_true "tlc margins tighter"
    (M.read_margin M.default_tlc ~level:1 < M.read_margin c ~level:1)

let test_level_out_of_range () =
  check_error "level 9" (M.program_level (engine ()) ~qfg0:0. ~level:9)

let prop_read_level_of_target_charge =
  prop "reading the exact target charge returns the level" ~count:20
    QCheck2.Gen.(int_range 0 3)
    (fun level ->
       let dvt = M.target_dvt M.default_mlc ~level in
       let qfg = F.qfg_for_threshold_shift t ~dvt in
       M.read_level t ~qfg = level)

let () =
  Alcotest.run "mlc"
    [
      ( "mlc",
        [
          case "level counts" test_levels;
          case "level targets" test_targets;
          case "gray code" test_gray_code;
          case "gray adjacency" test_gray_adjacent_one_bit;
          case "bits roundtrip" test_level_bits_roundtrip;
          case "bit convention" test_level_bits_convention;
          case "program and read all levels" test_program_and_read_all_levels;
          case "placement accuracy" test_placement_accuracy;
          case "read margins" test_read_margin;
          case "level range" test_level_out_of_range;
          prop_read_level_of_target_charge;
        ] );
    ]
