module U = Gnrflash_physics.Units
open Gnrflash_testing.Testing

let test_length () =
  check_close "5 nm" 5e-9 (U.nm 5.);
  check_close "roundtrip" 7.3 (U.to_nm (U.nm 7.3))

let test_energy () =
  check_close "3.2 eV" (3.2 *. 1.602176634e-19) (U.ev_to_joule 3.2);
  check_close "roundtrip" 3.2 (U.joule_to_ev (U.ev_to_joule 3.2))

let test_field () =
  check_close "10 MV/cm" 1e9 (U.mv_per_cm 10.)

let test_current_density () =
  check_close "1e4 A/m2" 1. (U.to_a_per_cm2 1e4);
  check_close "3700 A/m2" 0.37 (U.to_a_per_cm2 3700.)

let test_time () =
  check_close "1 year" (365.25 *. 86400.) (U.years 1.);
  check_close "10 years" (10. *. 365.25 *. 86400.) (U.years 10.)

let () =
  Alcotest.run "units"
    [
      ( "units",
        [
          case "length" test_length;
          case "energy" test_energy;
          case "field" test_field;
          case "current density" test_current_density;
          case "time" test_time;
        ] );
    ]
