module M = Gnrflash_materials.Mlgnr
module G = Gnrflash_materials.Gnr
open Gnrflash_testing.Testing

let ribbon = G.make G.Armchair 12

let test_make_validation () =
  Alcotest.check_raises "layers" (Invalid_argument "Mlgnr.make: layers < 1") (fun () ->
      ignore (M.make ribbon ~layers:0))

let test_quantum_capacitance_scaling () =
  let cq n = M.quantum_capacitance (M.make ribbon ~layers:n) ~ef_ev:0.2 ~temp:300. in
  check_true "more layers, more Cq" (cq 3 > cq 1);
  (* screened geometric series: bounded by 1/(1-screening_factor) monolayers *)
  let bound = cq 1 /. (1. -. M.screening_factor) in
  check_true "bounded by screening sum" (cq 30 < bound *. 1.0001)

let test_storable_charge () =
  let s = M.make ribbon ~layers:3 in
  let q1 = M.storable_charge s ~ef_max_ev:0.2 in
  let q2 = M.storable_charge s ~ef_max_ev:0.4 in
  check_true "positive" (q1 > 0.);
  (* quadratic in EF: 2x EF -> 4x charge *)
  check_close ~tol:1e-9 "quadratic scaling" (4. *. q1) q2;
  Alcotest.check_raises "negative ef"
    (Invalid_argument "Mlgnr.storable_charge: negative ef_max") (fun () ->
      ignore (M.storable_charge s ~ef_max_ev:(-0.1)))

let test_sheet_conductance () =
  let g1 = M.sheet_conductance (M.make ribbon ~layers:1) ~ef_ev:3.5 in
  let g3 = M.sheet_conductance (M.make ribbon ~layers:3) ~ef_ev:3.5 in
  check_close ~tol:1e-12 "conductance scales with layers" (3. *. g1) g3;
  (* each channel contributes G0 = 77.5 uS *)
  let g0 = 2. *. Gnrflash_physics.Constants.q ** 2. /. Gnrflash_physics.Constants.h in
  check_true "multiple of G0" (g1 >= g0 *. 0.99)

let prop_storable_charge_monotone_in_layers =
  prop "storable charge grows with layers" QCheck2.Gen.(int_range 1 10) (fun n ->
      let q_n = M.storable_charge (M.make ribbon ~layers:n) ~ef_max_ev:0.3 in
      let q_n1 = M.storable_charge (M.make ribbon ~layers:(n + 1)) ~ef_max_ev:0.3 in
      q_n1 > q_n)

let () =
  Alcotest.run "mlgnr"
    [
      ( "mlgnr",
        [
          case "constructor validation" test_make_validation;
          case "quantum capacitance scaling" test_quantum_capacitance_scaling;
          case "storable charge" test_storable_charge;
          case "sheet conductance" test_sheet_conductance;
          prop_storable_charge_monotone_in_layers;
        ] );
    ]
