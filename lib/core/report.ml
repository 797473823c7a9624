module Plot = Gnrflash_plot

type check = {
  name : string;
  passed : bool;
  detail : string;
}

let monotone ~increasing ys =
  let ok = ref true in
  for i = 0 to Array.length ys - 2 do
    if increasing then begin
      if ys.(i + 1) < ys.(i) then ok := false
    end
    else if ys.(i + 1) > ys.(i) then ok := false
  done;
  !ok

let series_ys fig label =
  match
    List.find_opt (fun s -> s.Plot.Series.label = label) fig.Plot.Figure.series
  with
  | Some s -> Plot.Series.ys s
  | None -> invalid_arg ("Report: no series " ^ label)

let check_fig4 () =
  let _, (jin0, jout0) = Figures.fig4_initial_currents () in
  let ratio = jin0 /. max jout0 1e-300 in
  {
    name = "fig4: Jin >> Jout at t=0";
    passed = ratio > 1e6;
    detail = Printf.sprintf "Jin=%.3e Jout=%.3e A/cm^2 (ratio %.1e)" jin0 jout0 ratio;
  }

let check_fig5 () =
  let fig, tsat = Figures.fig5_transient () in
  let jin = series_ys fig "Jin" and jout = series_ys fig "Jout" in
  let n = min (Array.length jin) (Array.length jout) in
  let converged =
    n > 0 && abs_float (jin.(Array.length jin - 1) -. jout.(Array.length jout - 1))
             /. jin.(Array.length jin - 1) < 0.05
  in
  [
    {
      name = "fig5: Jin monotone decreasing";
      passed = monotone ~increasing:false jin;
      detail = Printf.sprintf "%d samples" (Array.length jin);
    };
    {
      name = "fig5: Jout monotone increasing";
      passed = monotone ~increasing:true jout;
      detail = Printf.sprintf "%d samples" (Array.length jout);
    };
    {
      name = "fig5: saturation (Jin = Jout) reached";
      passed = Option.is_some tsat && converged;
      detail =
        (match tsat with
         | Some t -> Printf.sprintf "tsat = %.3e s" t
         | None -> "no saturation event");
    };
  ]

(* For a family figure: every curve monotone in |J| along the sweep, and
   curves ordered by their parameter at the common final abscissa. *)
let family_checks ~fig ~figname ~expect_increasing_along_x =
  let series = fig.Plot.Figure.series in
  let per_curve =
    List.map
      (fun s ->
         let ys = Plot.Series.ys s in
         {
           name =
             Printf.sprintf "%s: J monotone along sweep (%s)" figname
               s.Plot.Series.label;
           passed = monotone ~increasing:expect_increasing_along_x ys;
           detail = Printf.sprintf "%d points" (Array.length ys);
         })
      series
  in
  let finals =
    List.map
      (fun s ->
         let ys = Plot.Series.ys s in
         ys.(Array.length ys - 1))
      series
  in
  let ordered =
    let rec strictly_increasing = function
      | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
      | _ -> true
    in
    strictly_increasing finals
  in
  per_curve
  @ [
    {
      name = Printf.sprintf "%s: curves ordered by parameter" figname;
      passed = ordered;
      detail =
        String.concat ", " (List.map (Printf.sprintf "%.2e") finals);
    };
  ]

let check_fig6 () =
  family_checks ~fig:(Figures.fig6_program_gcr ()) ~figname:"fig6"
    ~expect_increasing_along_x:true

let check_fig7 () =
  let fig = Figures.fig7_program_xto () in
  (* series are XTO = 5..9 nm: thinner oxide -> larger J, so the finals list
     (5 first) must be strictly DEcreasing; reverse before the shared check *)
  let reversed = { fig with Plot.Figure.series = List.rev fig.Plot.Figure.series } in
  let base = family_checks ~fig:reversed ~figname:"fig7" ~expect_increasing_along_x:true in
  (* "significant increase below 7 nm": compare decade gaps at VGS max *)
  let final label =
    let ys = series_ys fig label in
    ys.(Array.length ys - 1)
  in
  let gap_57 = log10 (final "XTO = 5 nm" /. final "XTO = 7 nm") in
  let gap_79 = log10 (final "XTO = 7 nm" /. final "XTO = 9 nm") in
  base
  @ [
    {
      name = "fig7: J rises sharply below 7 nm";
      passed = gap_57 > gap_79 && gap_57 > 2.;
      detail = Printf.sprintf "decades(5->7nm)=%.1f decades(7->9nm)=%.1f" gap_57 gap_79;
    };
  ]

let check_fig8 () =
  let fig = Figures.fig8_erase_gcr () in
  (* VGS runs -17 -> -8: |J| decreases along the sweep *)
  family_checks ~fig ~figname:"fig8" ~expect_increasing_along_x:false

let check_fig9 () =
  let fig = Figures.fig9_erase_xto () in
  let reversed = { fig with Plot.Figure.series = List.rev fig.Plot.Figure.series } in
  family_checks ~fig:reversed ~figname:"fig9" ~expect_increasing_along_x:false

let all_checks () =
  (check_fig4 () :: check_fig5 ())
  @ check_fig6 () @ check_fig7 () @ check_fig8 () @ check_fig9 ()

let render checks =
  let buf = Buffer.create 1024 in
  List.iter
    (fun c ->
       Buffer.add_string buf
         (Printf.sprintf "  [%s] %-55s %s\n"
            (if c.passed then "PASS" else "FAIL")
            c.name c.detail))
    checks;
  let failed = List.length (List.filter (fun c -> not c.passed) checks) in
  Buffer.add_string buf
    (Printf.sprintf "  %d/%d shape checks passed\n"
       (List.length checks - failed) (List.length checks));
  Buffer.contents buf
