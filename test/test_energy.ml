module En = Gnrflash_memory.Energy
module F = Gnrflash_device.Fgt
open Gnrflash_testing.Testing

let test_fn_program_energy () =
  let e = En.fn_program_energy F.paper_default ~vgs:15. ~pulse_width:10e-6 in
  check_true "cell energy positive" (e.En.cell_energy > 0.);
  check_true "supply >= cell" (e.En.supply_energy > 0.);
  check_true "pump sized" (e.En.pump_stages >= 8);
  (* cell energy = Q*V ~ 2.4e-17 * 15 ~ 3.5e-16 J: attojoule-scale *)
  check_in "attojoule scale" ~lo:1e-17 ~hi:1e-14 e.En.cell_energy

let test_che_program_energy () =
  let e =
    En.che_program_energy ~drain_current:0.5e-3 ~vds:5. ~vgs:10. ~pulse_width:1e-6
  in
  (* drain path: 0.5mA * 5V * 1us = 2.5e-9 J *)
  check_close ~tol:1e-3 "drain energy" 2.5e-9 e.En.cell_energy;
  check_true "supply at least drain" (e.En.supply_energy >= e.En.cell_energy)

let test_fn_beats_che_per_page () =
  let rows = En.page_program_comparison ~cells:4096 in
  let get k = List.assoc k rows in
  check_true "fn cheaper" (get "fn-page-energy-J" < get "che-page-energy-J");
  (* the paper's Section II argument: orders of magnitude advantage *)
  check_true "by orders of magnitude" (get "che-to-fn-ratio" > 1e3)

let test_energy_scales_with_cells () =
  let one = En.page_program_comparison ~cells:1 in
  let many = En.page_program_comparison ~cells:1000 in
  let get rows k = List.assoc k rows in
  check_close ~tol:1e-9 "linear scaling"
    (1000. *. get one "fn-page-energy-J")
    (get many "fn-page-energy-J")

let test_cells_validation () =
  Alcotest.check_raises "cells" (Invalid_argument "Energy.page_program_comparison: cells < 1")
    (fun () -> ignore (En.page_program_comparison ~cells:0))

let () =
  Alcotest.run "energy"
    [
      ( "energy",
        [
          case "FN pulse energy" test_fn_program_energy;
          case "CHE pulse energy" test_che_program_energy;
          case "FN beats CHE per page" test_fn_beats_che_per_page;
          case "linear in cells" test_energy_scales_with_cells;
          case "validation" test_cells_validation;
        ] );
    ]
