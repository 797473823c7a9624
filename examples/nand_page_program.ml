(* NAND block demo: program a checkerboard across a small block (ISPP
   with verify + program-disturb on inhibited cells), then read every page
   back and audit wear.

   Run with: dune exec examples/nand_page_program.exe *)

module M = Gnrflash_memory
module D = Gnrflash_device

let () =
  let pages = 4 and strings = 8 in
  let block = M.Nand_block.create D.Fgt.paper_default ~pages ~strings in
  let pattern p = Array.init strings (fun s -> (p + s) mod 2) in

  for p = 0 to pages - 1 do
    match M.Nand_block.program_page block ~page:p ~data:(pattern p) with
    | Ok () -> Printf.printf "programmed page %d\n" p
    | Error e -> failwith ("program_page: " ^ e)
  done;

  print_newline ();
  for p = 0 to pages - 1 do
    let bits = M.Nand_block.read_page block ~page:p in
    let want = pattern p in
    let show b = String.concat "" (Array.to_list (Array.map string_of_int b)) in
    Printf.printf "page %d: read %s  expected %s  %s\n" p (show bits) (show want)
      (if bits = want then "OK" else "MISMATCH")
  done;

  print_newline ();
  let stats = M.Nand_block.stats block in
  Printf.printf "controller stats: %d programs, %d disturb exposures, %d failures\n"
    stats.M.Nand_block.programs stats.M.Nand_block.disturb_events
    stats.M.Nand_block.program_failures;
  let mean_cycles, max_fluence, broken = M.Nand_block.wear_summary block in
  Printf.printf "wear: mean %.1f cycles/cell, max fluence %.3e C/m^2, %d broken\n"
    mean_cycles max_fluence broken;

  (* a synthetic workload over the same block *)
  print_newline ();
  let ops =
    M.Workload.generate ~seed:42 (M.Workload.Zipf 1.1) ~pages ~strings ~ops:24
      ~read_fraction:0.5
  in
  match M.Workload.replay block ops with
  | Error e -> failwith ("replay: " ^ e)
  | Ok s ->
    Printf.printf
      "zipf workload: %d writes, %d reads, %d block erases, %d verify failures\n"
      s.M.Workload.writes s.M.Workload.reads s.M.Workload.erase_cycles
      s.M.Workload.failed_verifies
