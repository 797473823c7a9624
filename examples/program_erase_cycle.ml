(* A full program / read / erase / read cycle of one MLGNR-CNT cell,
   showing the charge-balance dynamics of paper Section III and the logic
   convention (programmed = '0', erased = '1').

   Run with: dune exec examples/program_erase_cycle.exe *)

module D = Gnrflash_device
module M = Gnrflash_memory

let show_state label (cell : M.Cell.t) =
  let logic = M.Cell.read cell in
  Printf.printf "%-18s QFG = %+.3e C  dVT = %+6.3f V  reads as '%d'\n" label
    cell.M.Cell.qfg (M.Cell.dvt cell) (M.Cell.to_bit logic)

let () =
  let cell = M.Cell.make D.Fgt.paper_default in
  (* one engine carries the pulse caches across the whole session *)
  let engine = D.Program_erase.engine D.Fgt.paper_default in
  show_state "fresh:" cell;

  (* Program with the default 15 V / 1 ms pulse. *)
  let programmed =
    match M.Cell.program engine cell with
    | Ok c -> c
    | Error e -> failwith ("program failed: " ^ e)
  in
  show_state "programmed:" programmed;

  (* Erase with -15 V. *)
  let erased =
    match M.Cell.erase engine programmed with
    | Ok c -> c
    | Error e -> failwith ("erase failed: " ^ e)
  in
  show_state "erased:" erased;

  (* The transient inside the program pulse, as in paper Figs 4-5. *)
  print_newline ();
  (match D.Transient.run D.Fgt.paper_default ~vgs:15. ~duration:10. with
   | Error e -> prerr_endline (Gnrflash_resilience.Solver_error.to_string e)
   | Ok r ->
     Printf.printf "programming transient (tsat = %s):\n"
       (match r.D.Transient.tsat with
        | Some t -> Printf.sprintf "%.3e s" t
        | None -> "not reached");
     Printf.printf "  %-12s %-10s %-12s %-12s\n" "t [s]" "VFG [V]" "Jin[A/cm2]"
       "Jout[A/cm2]";
     let samples = r.D.Transient.samples in
     let n = Array.length samples in
     Array.iteri
       (fun i s ->
          if i mod (max 1 (n / 10)) = 0 || i = n - 1 then
            Printf.printf "  %-12.3e %-10.3f %-12.3e %-12.3e\n" s.D.Transient.time
              s.D.Transient.vfg
              (s.D.Transient.j_in /. 1e4)
              (s.D.Transient.j_out /. 1e4))
       samples);

  (* ISPP: how production flash would program this cell to dVT = 2 V. *)
  print_newline ();
  (match D.Ispp.run engine ~qfg0:0. with
   | Error e -> prerr_endline e
   | Ok r ->
     Printf.printf "ISPP to dVT = 2 V: %d pulses, passed = %b\n" r.D.Ispp.pulses_used
       r.D.Ispp.passed;
     List.iter
       (fun s ->
          Printf.printf "  pulse %2d @ %.1f V -> dVT = %.3f V\n" s.D.Ispp.pulse_index
            s.D.Ispp.vgs s.D.Ispp.dvt)
       r.D.Ispp.steps)
