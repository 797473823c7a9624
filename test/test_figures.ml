module Fig = Gnrflash.Figures
module P = Gnrflash_plot
open Gnrflash_testing.Testing

let series_labelled fig label =
  match List.find_opt (fun s -> s.P.Series.label = label) fig.P.Figure.series with
  | Some s -> s
  | None -> Alcotest.failf "missing series %s" label

let test_fig2_band_profiles () =
  let fig = Fig.fig2_band_diagram () in
  Alcotest.(check int) "four profiles" 4 (List.length fig.P.Figure.series);
  (* each triangular profile starts at phi_B = 3.2 eV and falls to 0 *)
  let s = series_labelled fig "E = 10 MV/cm" in
  let ys = P.Series.ys s in
  check_close ~tol:1e-6 "entry at phi" 3.2 ys.(0);
  check_abs ~tol:1e-6 "exit at zero" 0. ys.(Array.length ys - 1);
  (* higher field -> thinner barrier: compare widths *)
  let width label =
    let pts = (series_labelled fig label).P.Series.points in
    fst pts.(Array.length pts - 1)
  in
  check_true "apparent thinning" (width "E = 15 MV/cm" < width "E = 5 MV/cm");
  (* image force rounds the top below phi *)
  let rounded = P.Series.ys (series_labelled fig "E = 10 MV/cm + image force") in
  let top = Array.fold_left max neg_infinity rounded in
  check_true "image force lowers the peak" (top < 3.2)

let test_fig4_ratio () =
  let _, (jin0, jout0) = Fig.fig4_initial_currents () in
  (* paper worked example: Jin ~ 285.7 A/cm^2 at t=0, Jout negligible *)
  check_close ~tol:1e-3 "Jin(0)" 285.68 jin0;
  check_true "Jout negligible" (jout0 < 1e-9);
  check_true "many orders apart" (jin0 /. jout0 > 1e10)

let test_fig5_convergence () =
  let fig, tsat = Fig.fig5_transient () in
  (match tsat with
   | None -> Alcotest.fail "tsat missing"
   | Some t -> check_in "tsat plausible" ~lo:1e-6 ~hi:1e-1 t);
  let jin = P.Series.ys (series_labelled fig "Jin") in
  let jout = P.Series.ys (series_labelled fig "Jout") in
  let last a = a.(Array.length a - 1) in
  check_close ~tol:0.05 "currents converge at tsat" (last jin) (last jout)

(* Golden pin for the Fig 5 saturation time. The FSAL DOPRI5(4) stepper with
   dense-output event localization measures
   tsat = 2.97320829404940892e-04 s; the seed (RKF45 step-doubling +
   re-integration bisection) measured 2.97320499004981114e-04 s, 1.12e-6
   apart relative — the crossing is now resolved on the dense interpolant
   within the integration tolerance, so bit-equality with the seed is not
   expected. Documented tolerance vs the seed: 5e-6 relative (ISSUE 5);
   the current stepper is pinned much tighter (1e-9) to catch regressions. *)
let test_fig5_tsat_golden () =
  let _, tsat = Fig.fig5_transient () in
  match tsat with
  | None -> Alcotest.fail "tsat missing"
  | Some ts ->
    let pinned = 2.97320829404940892e-04 in
    let seed = 2.97320499004981114e-04 in
    check_true
      (Printf.sprintf "tsat %.17e within 1e-9 rel of pin %.17e" ts pinned)
      (abs_float (ts -. pinned) /. pinned <= 1e-9);
    check_true
      (Printf.sprintf "tsat %.17e within 5e-6 rel of seed %.17e" ts seed)
      (abs_float (ts -. seed) /. seed <= 5e-6)

let test_fig6_families () =
  let fig = Fig.fig6_program_gcr () in
  Alcotest.(check int) "four GCR curves" 4 (List.length fig.P.Figure.series);
  (* the paper's reading: at fixed VGS, higher GCR -> higher J *)
  let final label =
    let ys = P.Series.ys (series_labelled fig label) in
    ys.(Array.length ys - 1)
  in
  check_true "45 < 50" (final "GCR = 45%" < final "GCR = 50%");
  check_true "50 < 55" (final "GCR = 50%" < final "GCR = 55%");
  check_true "55 < 60" (final "GCR = 55%" < final "GCR = 60%")

let test_fig7_thickness_blowup () =
  let fig = Fig.fig7_program_xto () in
  Alcotest.(check int) "five XTO curves" 5 (List.length fig.P.Figure.series);
  let final label =
    let ys = P.Series.ys (series_labelled fig label) in
    ys.(Array.length ys - 1)
  in
  (* thinner oxide carries far more current; 5 nm vs 9 nm is > 4 decades *)
  check_true "5 nm >> 9 nm" (final "XTO = 5 nm" /. final "XTO = 9 nm" > 1e4)

let test_fig8_erase_polarity () =
  let fig = Fig.fig8_erase_gcr () in
  List.iter
    (fun s ->
       Array.iter (fun (v, _) -> check_true "erase sweep negative" (v < 0.)) s.P.Series.points)
    fig.P.Figure.series

let test_fig9_erase_thickness () =
  let fig = Fig.fig9_erase_xto () in
  Alcotest.(check int) "five curves" 5 (List.length fig.P.Figure.series);
  (* |J| larger at more negative VGS: first point (VGS = -17) above last *)
  List.iter
    (fun s ->
       let ys = P.Series.ys s in
       check_true "decreasing towards -8 V" (ys.(0) > ys.(Array.length ys - 1)))
    fig.P.Figure.series

let test_all_figures_generate () =
  let all = Fig.all () in
  Alcotest.(check int) "seven figures" 7 (List.length all);
  List.iter
    (fun (name, fig) ->
       check_true (name ^ " has series") (List.length fig.P.Figure.series > 0))
    all

let test_jv_sweep_program_erase_symmetry () =
  (* with QFG = 0 the erase current at -V equals the program current at +V *)
  let prog =
    Fig.jv_sweep_gcr ~polarity:`Program ~gcr:0.6 ~xto_nm:5. ~vgs_range:(8., 17.) ~points:10
  in
  let erase =
    Fig.jv_sweep_gcr ~polarity:`Erase ~gcr:0.6 ~xto_nm:5. ~vgs_range:(-17., -8.) ~points:10
  in
  let j_prog_17 = snd prog.(9) in
  let j_erase_m17 = snd erase.(0) in
  check_close ~tol:1e-9 "polarity symmetry" j_prog_17 j_erase_m17

let prop_sweep_ordered_by_gcr =
  prop "higher GCR always carries more current" ~count:30
    QCheck2.Gen.(pair (float_range 0.3 0.65) (float_range 0.02 0.2))
    (fun (gcr, dg) ->
       let final gcr =
         let pts =
           Fig.jv_sweep_gcr ~polarity:`Program ~gcr ~xto_nm:5. ~vgs_range:(10., 17.)
             ~points:5
         in
         snd pts.(4)
       in
       final (gcr +. dg) > final gcr)

let prop_sweep_ordered_by_xto =
  prop "thinner tunnel oxide always carries more current" ~count:30
    QCheck2.Gen.(pair (float_range 4. 9.) (float_range 0.3 2.))
    (fun (xto, dx) ->
       let final xto_nm =
         let pts =
           Fig.jv_sweep_gcr ~polarity:`Program ~gcr:0.6 ~xto_nm ~vgs_range:(10., 17.)
             ~points:5
         in
         snd pts.(4)
       in
       final xto > final (xto +. dx))

let () =
  Alcotest.run "figures"
    [
      ( "figures",
        [
          case "fig2 band diagram" test_fig2_band_profiles;
          case "fig4 initial currents" test_fig4_ratio;
          case "fig5 transient convergence" test_fig5_convergence;
          case "fig5 tsat golden" test_fig5_tsat_golden;
          case "fig6 GCR families" test_fig6_families;
          case "fig7 thickness blow-up" test_fig7_thickness_blowup;
          case "fig8 erase polarity" test_fig8_erase_polarity;
          case "fig9 erase thickness" test_fig9_erase_thickness;
          case "all figures generate" test_all_figures_generate;
          case "program/erase symmetry" test_jv_sweep_program_erase_symmetry;
          prop_sweep_ordered_by_gcr;
          prop_sweep_ordered_by_xto;
        ] );
    ]
