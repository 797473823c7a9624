module C = Gnrflash_physics.Constants
open Gnrflash_testing.Testing

let test_codata_values () =
  check_close "q" 1.602176634e-19 C.q;
  check_close "h" 6.62607015e-34 C.h;
  check_close "m0" 9.1093837015e-31 C.m0;
  check_close "kB" 1.380649e-23 C.k_b;
  check_close ~tol:1e-9 "eps0" 8.8541878128e-12 C.eps0

let test_hbar () = check_close ~tol:1e-12 "hbar" (C.h /. (2. *. Float.pi)) C.hbar

let test_hbar_value () = check_close ~tol:1e-9 "hbar numeric" 1.054571817e-34 C.hbar

let test_ev_equals_q () = check_close "1 eV in J" C.q C.ev

let test_graphene_lattice () =
  check_close "a_cc" 0.142e-9 C.a_cc;
  check_close ~tol:1e-12 "lattice constant" (sqrt 3. *. 0.142e-9) C.a_graphene;
  check_close ~tol:1e-3 "a ~ 0.246 nm" 0.246e-9 C.a_graphene

let test_hopping_energy () =
  check_close ~tol:1e-12 "t = 2.7 eV" (2.7 *. C.ev) C.t_hopping

let test_thermal_voltage () =
  (* kT/q at 300 K ~ 25.85 mV *)
  check_close ~tol:1e-3 "vt at 300K" 0.02585 (C.thermal_voltage 300.);
  check_close ~tol:1e-12 "scales linearly" (2. *. C.thermal_voltage 300.)
    (C.thermal_voltage 600.)

let () =
  Alcotest.run "constants"
    [
      ( "constants",
        [
          case "CODATA 2018 values" test_codata_values;
          case "hbar definition" test_hbar;
          case "hbar numeric" test_hbar_value;
          case "eV = q joules" test_ev_equals_q;
          case "graphene lattice" test_graphene_lattice;
          case "hopping energy" test_hopping_energy;
          case "thermal voltage" test_thermal_voltage;
        ] );
    ]
