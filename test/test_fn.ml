module Fn = Gnrflash_quantum.Fn
module W = Gnrflash_materials.Workfunction
module O = Gnrflash_materials.Oxide
open Gnrflash_testing.Testing

let p = Fn.coefficients ~phi_b_ev:3.2 ~m_ox_rel:0.42

let test_textbook_coefficients () =
  (* Lenzlinger-Snow for Si/SiO2: A ~ 1.15e-6 A/V^2, B ~ 2.54e10 V/m *)
  check_close ~tol:1e-3 "A" 1.1469e-6 p.Fn.a;
  check_close ~tol:1e-3 "B" 2.5341e10 p.Fn.b

let test_coefficient_scalings () =
  (* A ~ 1/(m phi), B ~ sqrt(m) phi^1.5 *)
  let p2 = Fn.coefficients ~phi_b_ev:6.4 ~m_ox_rel:0.42 in
  check_close ~tol:1e-9 "A halves when phi doubles" (p.Fn.a /. 2.) p2.Fn.a;
  check_close ~tol:1e-9 "B scales as phi^1.5" (p.Fn.b *. (2. ** 1.5)) p2.Fn.b;
  let p3 = Fn.coefficients ~phi_b_ev:3.2 ~m_ox_rel:0.84 in
  check_close ~tol:1e-9 "A inverse in mass" (p.Fn.a /. 2.) p3.Fn.a;
  check_close ~tol:1e-9 "B as sqrt mass" (p.Fn.b *. sqrt 2.) p3.Fn.b

let test_validation () =
  Alcotest.check_raises "phi" (Invalid_argument "Fn.coefficients: phi_b <= 0")
    (fun () -> ignore (Fn.coefficients ~phi_b_ev:0. ~m_ox_rel:0.42))

let test_current_at_reference_field () =
  (* worked value pinned by the smoke analysis: J(18 MV/cm) ~ 285.7 A/cm^2 *)
  check_close ~tol:1e-3 "J at 18 MV/cm" 2.8568e6 (Fn.current_density p ~field:1.8e9)

let test_current_zero_for_reverse () =
  check_close "no reverse current" 0. (Fn.current_density p ~field:(-1e9));
  check_close "zero field" 0. (Fn.current_density p ~field:0.)

let test_of_interface () =
  let p' = Fn.of_interface (W.Custom ("paper", 4.1)) O.sio2 in
  check_close ~tol:1e-9 "same barrier as direct construction" p.Fn.a p'.Fn.a;
  check_close ~tol:1e-9 "same B" p.Fn.b p'.Fn.b;
  check_close "phi recorded" 3.2 p'.Fn.phi_b_ev

let prop_monotone_in_field =
  prop "J strictly increasing in field"
    QCheck2.Gen.(pair (float_range 5e8 2.5e9) (float_range 1.01 1.5))
    (fun (e, factor) ->
       Fn.current_density p ~field:(e *. factor) > Fn.current_density p ~field:e)

let prop_higher_barrier_less_current =
  prop "J decreasing in barrier height"
    QCheck2.Gen.(float_range 2.0 4.5)
    (fun phi ->
       let p1 = Fn.coefficients ~phi_b_ev:phi ~m_ox_rel:0.42 in
       let p2 = Fn.coefficients ~phi_b_ev:(phi +. 0.3) ~m_ox_rel:0.42 in
       let e = 1.2e9 in
       Fn.current_density p2 ~field:e < Fn.current_density p1 ~field:e)

let () =
  Alcotest.run "fn"
    [
      ( "fn",
        [
          case "textbook coefficients" test_textbook_coefficients;
          case "coefficient scalings" test_coefficient_scalings;
          case "validation" test_validation;
          case "reference current" test_current_at_reference_field;
          case "polarity handling" test_current_zero_for_reverse;
          case "interface-derived params" test_of_interface;
          prop_monotone_in_field;
          prop_higher_barrier_less_current;
        ] );
    ]
