module Ts = Gnrflash_quantum.Tsu_esaki
module Fn = Gnrflash_quantum.Fn
module C = Gnrflash_physics.Constants
open Gnrflash_testing.Testing

let ev = C.ev
let phi_b = 3.2 *. ev
let m_b = 0.42 *. C.m0
let ef = 0.1 *. ev

let j model field =
  Ts.current_density ~model ~phi_b ~field ~thickness:5e-9 ~m_b ~ef ()

let test_zero_field () =
  check_close "no field no current" 0. (j Ts.Wkb_model 0.)

let test_positive_and_finite () =
  let v = j Ts.Wkb_model 1.2e9 in
  check_true "positive" (v > 0.);
  check_true "finite" (Float.is_finite v)

let test_monotone_in_field () =
  let j1 = j Ts.Wkb_model 1.0e9 and j2 = j Ts.Wkb_model 1.4e9 in
  check_true "monotone" (j2 > j1)

let test_same_order_as_closed_form () =
  (* at high field the Tsu-Esaki/WKB integral should land within ~2 decades
     of the Lenzlinger-Snow closed form (different supply treatments) *)
  let field = 1.5e9 in
  let p = Fn.coefficients ~phi_b_ev:3.2 ~m_ox_rel:0.42 in
  let j_fn = Fn.current_density p ~field in
  let j_ts = j Ts.Wkb_model field in
  let decades = abs_float (log10 (j_ts /. j_fn)) in
  check_true "within 2 decades" (decades < 2.)

let test_models_agree_on_exponent () =
  let field = 1.4e9 in
  let j_wkb = j Ts.Wkb_model field in
  let j_airy = j Ts.Exact_airy field in
  let ratio = abs_float (log10 (j_wkb /. j_airy)) in
  check_true "wkb vs airy within 1.5 decades" (ratio < 1.5)

let test_temperature_dependence_weak () =
  (* FN tunneling is nearly temperature independent *)
  let j300 = Ts.current_density ~temp:300. ~phi_b ~field:1.4e9 ~thickness:5e-9 ~m_b ~ef () in
  let j350 = Ts.current_density ~temp:350. ~phi_b ~field:1.4e9 ~thickness:5e-9 ~m_b ~ef () in
  check_in "weak T dependence" ~lo:0.5 ~hi:2.0 (j350 /. j300)

let prop_monotone =
  prop "Tsu-Esaki monotone in field" ~count:10
    QCheck2.Gen.(float_range 1.0e9 1.8e9)
    (fun field -> j Ts.Wkb_model (field *. 1.1) > j Ts.Wkb_model field)

let test_wkb_cache_counters () =
  let module Tel = Gnrflash_telemetry.Telemetry in
  Tel.reset ();
  Tel.enable ();
  Fun.protect ~finally:(fun () -> Tel.disable (); Tel.reset ()) @@ fun () ->
  ignore (j Ts.Wkb_model 1.2e9);
  Alcotest.(check int) "one cache build per current_density call" 1
    (Tel.For_testing.counter_total "wkb/cache_build");
  let hits = Tel.For_testing.counter_total "wkb/cache_hit" in
  let quad_evals = Tel.For_testing.counter_total "quad/fn_eval" in
  check_true "cache consulted at every quadrature node" (hits > 0);
  Alcotest.(check int) "one transmission lookup per quadrature node"
    quad_evals hits

let () =
  Alcotest.run "tsu_esaki"
    [
      ( "tsu_esaki",
        [
          case "zero field" test_zero_field;
          case "WKB cache counters" test_wkb_cache_counters;
          case "positive and finite" test_positive_and_finite;
          case "monotone in field" test_monotone_in_field;
          case "order of closed form" test_same_order_as_closed_form;
          case "models agree" test_models_agree_on_exponent;
          case "weak temperature dependence" test_temperature_dependence_weak;
          prop_monotone;
        ] );
    ]
