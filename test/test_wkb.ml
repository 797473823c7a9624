module W = Gnrflash_quantum.Wkb
module B = Gnrflash_quantum.Barrier
module C = Gnrflash_physics.Constants
open Gnrflash_testing.Testing

let ev = C.ev
let m_eff = 0.42 *. C.m0

let test_closed_form_matches_paper_exponent () =
  (* T = exp(-B_fn/E) with B_fn = 4 sqrt(2m) phi^1.5 / (3 hbar q),
     the exponential factor of the Lenzlinger-Snow current *)
  let field = 1e9 in
  let phi = 3.2 *. ev in
  let b_fn = 4. *. sqrt (2. *. m_eff) *. (phi ** 1.5) /. (3. *. C.hbar *. C.q) in
  check_close ~tol:1e-4 "B magnitude" 2.534e10 b_fn;
  let t = W.For_testing.transmission_triangular ~phi_b:phi ~field ~m_eff in
  check_close ~tol:1e-9 "exponent" (exp (-.b_fn /. field)) t

let test_numeric_matches_closed_form () =
  let phi = 3.2 *. ev and field = 1.2e9 in
  let closed = W.For_testing.transmission_triangular ~phi_b:phi ~field ~m_eff in
  let b = B.triangular ~phi_b:phi ~field ~m_eff in
  let numeric = W.transmission b ~energy:0. in
  check_close ~tol:1e-4 "quadrature vs closed form" closed numeric

let test_transmission_bounds () =
  let b = B.triangular ~phi_b:(3.2 *. ev) ~field:8e8 ~m_eff in
  let t = W.transmission b ~energy:(0.1 *. ev) in
  check_in "in [0,1]" ~lo:0. ~hi:1. t

let test_above_barrier_transmits () =
  let b = B.triangular ~phi_b:(1. *. ev) ~field:1e9 ~m_eff in
  check_close "T = 1 above barrier" 1. (W.transmission b ~energy:(1.5 *. ev))

let test_action_zero_above () =
  let b = B.triangular ~phi_b:(1. *. ev) ~field:1e9 ~m_eff in
  check_close "no action above" 0. (W.action_integral b ~energy:(2. *. ev))

let test_transmission_increases_with_energy () =
  let b = B.triangular ~phi_b:(3.2 *. ev) ~field:1e9 ~m_eff in
  let t0 = W.transmission b ~energy:0. in
  let t1 = W.transmission b ~energy:(0.5 *. ev) in
  let t2 = W.transmission b ~energy:(1.5 *. ev) in
  check_true "monotone in E" (t0 < t1 && t1 < t2)

let test_transmission_increases_with_field () =
  let t e = W.For_testing.transmission_triangular ~phi_b:(3.2 *. ev) ~field:e ~m_eff in
  check_true "monotone in field" (t 8e8 < t 1e9 && t 1e9 < t 1.5e9)

let test_heavier_mass_less_transmission () =
  let t m = W.For_testing.transmission_triangular ~phi_b:(3.2 *. ev) ~field:1e9 ~m_eff:m in
  check_true "mass suppresses tunneling" (t (0.5 *. C.m0) < t (0.3 *. C.m0))

let test_rectangular_barrier_action () =
  (* flat barrier: action = 2 kappa d *)
  let v = 1. *. ev and d = 2e-9 in
  let b = B.make ~m_eff [ (0., v); (d, v *. (1. -. 1e-9)) ] in
  let kappa = sqrt (2. *. m_eff *. v) /. C.hbar in
  check_close ~tol:1e-3 "2 kappa d" (2. *. kappa *. d) (W.action_integral b ~energy:0.)

let prop_transmission_in_unit_interval =
  prop "0 <= T <= 1 everywhere"
    QCheck2.Gen.(pair (float_range 5e8 3e9) (float_range 0. 3.))
    (fun (field, e_ev) ->
       let b = B.triangular ~phi_b:(3.2 *. ev) ~field ~m_eff in
       let t = W.transmission b ~energy:(e_ev *. ev) in
       t >= 0. && t <= 1.)

let prop_closed_form_agreement =
  prop "closed form vs quadrature across fields" ~count:25
    QCheck2.Gen.(float_range 6e8 2.5e9)
    (fun field ->
       let phi = 3.2 *. ev in
       let closed = W.For_testing.transmission_triangular ~phi_b:phi ~field ~m_eff in
       let b = B.triangular ~phi_b:phi ~field ~m_eff in
       let numeric = W.transmission b ~energy:0. in
       abs_float (log closed -. log numeric) < 1e-3)

(* The closed-form cache against the adaptive quadrature, an independent
   evaluation of the same action integral: over random trapezoidal
   barriers (direct-tunneling and FN shapes), biases and energies up to
   past the barrier top, the two exponents agree to the ~1e-9 relative
   tolerance the adaptive path integrates to. *)
let prop_cache_matches_adaptive =
  prop "cache matches adaptive quadrature" ~count:200
    QCheck2.Gen.(
      quad (float_range 2.5 3.5) (float_range 0.5e9 1.8e9)
        (float_range 3e-9 9e-9) (float_range 0. 1.1))
    (fun (phi_ev, field, thickness, e_frac) ->
       let phi_b = phi_ev *. ev in
       let b = B.trapezoidal ~phi_b ~v_ox:(field *. thickness) ~thickness ~m_eff in
       let energy = e_frac *. phi_b in
       let cached = -.log (W.Cache.transmission (W.Cache.make b) ~energy) in
       let adaptive = -.log (W.transmission b ~energy) in
       abs_float (cached -. adaptive) <= 1e-9 *. adaptive)

let () =
  Alcotest.run "wkb"
    [
      ( "wkb",
        [
          case "closed form exponent" test_closed_form_matches_paper_exponent;
          case "numeric vs closed form" test_numeric_matches_closed_form;
          case "bounds" test_transmission_bounds;
          case "above-barrier" test_above_barrier_transmits;
          case "zero action above" test_action_zero_above;
          case "monotone in energy" test_transmission_increases_with_energy;
          case "monotone in field" test_transmission_increases_with_field;
          case "mass dependence" test_heavier_mass_less_transmission;
          case "rectangular action" test_rectangular_barrier_action;
          prop_transmission_in_unit_interval;
          prop_closed_form_agreement;
          prop_cache_matches_adaptive;
        ] );
    ]
