(* Multi-level cell demo: pack two bits per MLGNR floating gate by
   programming to one of four threshold windows, then read them back
   against intermediate references.

   Run with: dune exec examples/mlc_demo.exe *)

module M = Gnrflash_memory.Mlc
module F = Gnrflash_device.Fgt

let () =
  let device = F.paper_default in
  let engine = Gnrflash_device.Program_erase.engine device in
  let config = M.default_mlc in
  Printf.printf "MLC: %d bits/cell, %d levels\n" config.M.bits (M.levels config);
  Printf.printf "%-7s %-6s %-12s %-12s %-8s %-8s\n" "level" "bits" "target dVT"
    "placed dVT" "pulses" "margin";
  for level = 0 to M.levels config - 1 do
    match M.program_level ~config engine ~qfg0:0. ~level with
    | Error e -> Printf.printf "level %d: FAILED (%s)\n" level e
    | Ok (qfg, pulses) ->
      let bits = M.level_to_bits config level in
      let placed = F.threshold_shift device ~qfg in
      let read = M.read_level ~config device ~qfg in
      Printf.printf "%-7d %d%d     %-12.2f %-12.3f %-8d %-8.2f %s\n" level bits.(0)
        bits.(1)
        (M.target_dvt config ~level)
        placed pulses
        (M.read_margin config ~level)
        (if read = level then "OK" else "READ MISMATCH")
  done;

  (* TLC: how much tighter the windows get *)
  print_newline ();
  let tlc = M.default_tlc in
  Printf.printf "TLC comparison: %d levels, margin %.3f V (MLC: %.3f V)\n"
    (M.levels tlc)
    (M.read_margin tlc ~level:1)
    (M.read_margin config ~level:1)
