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

let test_hopping_energy () =
  check_close ~tol:1e-12 "t = 2.7 eV" (2.7 *. C.ev) C.t_hopping

let () =
  Alcotest.run "constants"
    [
      ( "constants",
        [
          case "CODATA 2018 values" test_codata_values;
          case "hbar definition" test_hbar;
          case "hbar numeric" test_hbar_value;
          case "eV = q joules" test_ev_equals_q;
          case "hopping energy" test_hopping_energy;
        ] );
    ]
