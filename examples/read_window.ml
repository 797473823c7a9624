(* Sensing the stored bit: ID-VG transfer curves of the MLGNR read
   transistor in the erased and programmed states, the read window between
   them, and the over-erase recovery flow that keeps NOR bit lines usable.

   Run with: dune exec examples/read_window.exe *)

module Fet = Gnrflash_device.Fet
module O = Gnrflash_memory.Over_erase
module Cell = Gnrflash_memory.Cell
module D = Gnrflash_device

let () =
  (* the transfer-curve pair *)
  let fig = Gnrflash.Extensions.id_vg_figure ~dvt_programmed:5. () in
  Gnrflash_plot.Ascii.print ~width:64 ~height:18 fig;

  let fet = Fet.default in
  Printf.printf "\nread window at VREAD = 3 V, VDS = 50 mV: %.1e (on/off)\n"
    (Fet.read_window fet ~dvt_programmed:5. ~vread:3. ~vds:0.05);
  Printf.printf "subthreshold swing: %.1f mV/dec\n"
    (Fet.subthreshold_swing fet ~vds:0.05);

  (* over-erase: what an unmanaged NOR erase does, and the recovery *)
  print_newline ();
  let cell = Cell.make D.Fgt.paper_default in
  let engine = D.Program_erase.engine D.Fgt.paper_default in
  let programmed = match Cell.program engine cell with Ok c -> c | Error e -> failwith e in
  (match Cell.erase engine programmed with
   | Error e -> failwith e
   | Ok erased ->
     Printf.printf "raw erase leaves dVT = %.2f V (over-erased: %b)\n"
       (Cell.dvt erased)
       (O.is_over_erased erased);
     (match O.recover engine erased with
      | Error e -> Printf.printf "recovery failed: %s\n" e
      | Ok (fixed, pulses) ->
        Printf.printf "soft programming: %d pulses -> dVT = %.2f V (in window: %b)\n"
          pulses (Cell.dvt fixed)
          (not (O.is_over_erased fixed))))
