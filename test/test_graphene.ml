module G = Gnrflash_materials.Graphene
module C = Gnrflash_physics.Constants
open Gnrflash_testing.Testing

let ev = C.ev

let test_degenerate_density () =
  (* n(EF) = EF^2/(pi (hbar vF)^2), ~2.95e16 m^-2 at 0.2 eV: the charge a
     single-layer floating gate stores while its Fermi level rises by EF *)
  let monolayer =
    Gnrflash_materials.Mlgnr.make Gnrflash_materials.Gnr.(make Armchair 12) ~layers:1
  in
  let sigma = Gnrflash_materials.Mlgnr.storable_charge monolayer ~ef_max_ev:0.2 in
  check_close ~tol:0.01 "n at 0.2 eV" 2.95e16 (sigma /. C.q)

let test_quantum_capacitance_degenerate () =
  let ef = 0.2 *. ev in
  let expected = 2. *. C.q *. C.q *. ef /. (Float.pi *. ((C.hbar *. 1e6) ** 2.)) in
  check_close ~tol:1e-9 "degenerate Cq" expected (G.quantum_capacitance ~ef ~t:0.)

let test_quantum_capacitance_thermal_floor () =
  let cq = G.quantum_capacitance ~ef:0. ~t:300. in
  check_true "thermal floor" (cq > 0.);
  (* literature: ~0.8 uF/cm^2 = 8e-3 F/m^2 at the Dirac point, 300 K *)
  check_close ~tol:0.05 "magnitude" 8.4e-3 cq

let test_quantum_capacitance_large_ef_no_overflow () =
  let cq = G.quantum_capacitance ~ef:(2. *. ev) ~t:300. in
  check_true "finite" (Float.is_finite cq)

let prop_cq_increases_with_ef =
  prop "Cq monotone in |EF|" QCheck2.Gen.(float_range 0.01 0.5) (fun ef_ev ->
      let c1 = G.quantum_capacitance ~ef:(ef_ev *. ev) ~t:300. in
      let c2 = G.quantum_capacitance ~ef:((ef_ev +. 0.05) *. ev) ~t:300. in
      c2 > c1)

let () =
  Alcotest.run "graphene"
    [
      ( "graphene",
        [
          case "degenerate density" test_degenerate_density;
          case "Cq degenerate limit" test_quantum_capacitance_degenerate;
          case "Cq thermal floor" test_quantum_capacitance_thermal_floor;
          case "Cq no overflow" test_quantum_capacitance_large_ef_no_overflow;
          prop_cq_increases_with_ef;
        ] );
    ]
