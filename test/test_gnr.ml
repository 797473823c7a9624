module G = Gnrflash_materials.Gnr
module C = Gnrflash_physics.Constants
open Gnrflash_testing.Testing

let test_make_validation () =
  Alcotest.check_raises "n too small" (Invalid_argument "Gnr.make: n < 2") (fun () ->
      ignore (G.make G.Armchair 1))

let test_width_armchair () =
  (* N-AGNR width = (N-1) sqrt3/2 a_cc: 12-AGNR -> 11*0.123 = 1.353 nm *)
  let r = G.make G.Armchair 12 in
  check_close ~tol:1e-3 "12-AGNR width" 1.3529e-9 (G.width r)

let test_width_zigzag () =
  let r = G.make G.Zigzag 6 in
  check_close ~tol:1e-3 "6-ZGNR width" (((1.5 *. 6.) -. 1.) *. 0.142e-9) (G.width r)

let test_family_rule () =
  Alcotest.(check int) "9 -> 0" 0 (G.family (G.make G.Armchair 9));
  Alcotest.(check int) "10 -> 1" 1 (G.family (G.make G.Armchair 10));
  Alcotest.(check int) "11 -> 2" 2 (G.family (G.make G.Armchair 11));
  Alcotest.(check int) "zigzag -> -1" (-1) (G.family (G.make G.Zigzag 8))

let test_three_family_gaps () =
  (* quasi-metallic family 3p+2 has (near-)zero TB gap; other families gap > 0 *)
  let gap n = G.bandgap_ev (G.make G.Armchair n) in
  check_true "N=11 (3p+2) quasi-metallic" (gap 11 < 0.2);
  check_true "N=12 (3p) semiconducting" (gap 12 > 0.3);
  check_true "N=13 (3p+1) semiconducting" (gap 13 > 0.3);
  (* the quasi-metallic family sits far below both semiconducting ones *)
  check_true "family separation" (gap 11 < gap 12 /. 2. && gap 11 < gap 13 /. 2.)

let test_gap_decreases_with_width () =
  let gap n = G.bandgap_ev (G.make G.Armchair n) in
  check_true "wider ribbon, smaller gap" (gap 24 < gap 12);
  check_true "even wider" (gap 48 < gap 24)

let test_zigzag_metallic () =
  check_close "zigzag gap 0" 0. (G.bandgap_ev (G.make G.Zigzag 10))

let test_subband_energy () =
  let r = G.make G.Armchair 12 in
  (* subband edge at k=0 equals t|1+2cos(theta_p)| *)
  let p = 8 in
  let theta = Float.pi *. 8. /. 13. in
  let expected = C.t_hopping *. abs_float (1. +. (2. *. cos theta)) in
  check_close ~tol:1e-9 "edge at k=0" expected (G.subband_energy r ~p ~k:0.);
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Gnr.subband_energy: p out of range") (fun () ->
      ignore (G.subband_energy r ~p:0 ~k:0.))

let test_subband_increases_from_edge () =
  let r = G.make G.Armchair 12 in
  (* moving k away from 0 cannot go below the k=0 edge for the gap subband *)
  let e0 = G.subband_energy r ~p:8 ~k:0. in
  let e1 = G.subband_energy r ~p:8 ~k:1e8 in
  check_true "dispersion rises" (e1 >= e0 -. 1e-25)

let test_empirical_gap () =
  check_close "0.8/W rule" 0.8 (G.empirical_gap_ev ~width_nm:1.0);
  check_close "2 nm ribbon" 0.4 (G.empirical_gap_ev ~width_nm:2.0);
  Alcotest.check_raises "bad width"
    (Invalid_argument "Gnr.empirical_gap_ev: width <= 0") (fun () ->
      ignore (G.empirical_gap_ev ~width_nm:0.))

let test_tb_vs_empirical_same_scale () =
  (* both models should agree within a factor ~3 for a ~1.4 nm semiconducting ribbon *)
  let r = G.make G.Armchair 13 in
  let tb = G.bandgap_ev r in
  let emp = G.empirical_gap_ev ~width_nm:(G.width r *. 1e9) in
  check_in "same order of magnitude" ~lo:(emp /. 3.) ~hi:(emp *. 3.) tb

let test_conducting_channels () =
  let r = G.make G.Armchair 12 in
  let low = G.conducting_channels r ~ef_ev:0.01 in
  let high = G.conducting_channels r ~ef_ev:3.5 in
  check_true "few channels at low EF" (low <= 1);
  check_true "more channels at high EF" (high > low);
  (* zigzag always has the edge band *)
  check_true "zigzag edge channel"
    (G.conducting_channels (G.make G.Zigzag 8) ~ef_ev:0.01 >= 1)

let prop_gap_nonnegative =
  prop "TB gap non-negative" QCheck2.Gen.(int_range 3 60) (fun n ->
      G.bandgap_ev (G.make G.Armchair n) >= 0.)

let prop_family_32_quasi_metallic =
  prop "3p+2 armchair gap below other families" QCheck2.Gen.(int_range 2 15)
    (fun p ->
       let n = (3 * p) + 2 in
       let g32 = G.bandgap_ev (G.make G.Armchair n) in
       let g3 = G.bandgap_ev (G.make G.Armchair (n + 1)) in
       g32 < g3)

let () =
  Alcotest.run "gnr"
    [
      ( "gnr",
        [
          case "constructor validation" test_make_validation;
          case "armchair width" test_width_armchair;
          case "zigzag width" test_width_zigzag;
          case "family rule" test_family_rule;
          case "three-family gaps" test_three_family_gaps;
          case "gap vs width" test_gap_decreases_with_width;
          case "zigzag metallic" test_zigzag_metallic;
          case "subband edge" test_subband_energy;
          case "dispersion rises from edge" test_subband_increases_from_edge;
          case "empirical 0.8/W" test_empirical_gap;
          case "TB vs empirical scale" test_tb_vs_empirical_same_scale;
          case "conducting channels" test_conducting_channels;
          prop_gap_nonnegative;
          prop_family_32_quasi_metallic;
        ] );
    ]
