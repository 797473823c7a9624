module Plot = Gnrflash_plot
module D = Gnrflash_device
module Q = Gnrflash_quantum
module U = Gnrflash_physics.Units
module Grid = Gnrflash_numerics.Grid

(* equation (3) with QFG = 0, then equation (7): E = |VFG|/XTO *)
let jv_point ~fn ~polarity ~gcr ~xto vgs =
  let vfg = gcr *. vgs in
  let v_drop = match polarity with `Program -> vfg | `Erase -> -.vfg in
  let j =
    if v_drop <= 0. then 0. else Q.Fn.current_density fn ~field:(v_drop /. xto)
  in
  (vgs, U.to_a_per_cm2 j)

let jv_sweep_gcr ~polarity ~gcr ~xto_nm ~vgs_range ~points =
  let fn = Params.fn () in
  let xto = U.nm xto_nm in
  let v0, v1 = vgs_range in
  let vgs_grid = Grid.linspace v0 v1 points in
  Sweep.map (jv_point ~fn ~polarity ~gcr ~xto) vgs_grid

let fig2_band_diagram () =
  let phi_j = U.ev_to_joule Params.phi_b_ev in
  let m_eff = Params.m_ox_rel *. Gnrflash_physics.Constants.m0 in
  let profile ?(image = false) ~label field =
    let b = Q.Barrier.triangular ~phi_b:phi_j ~field ~m_eff in
    let b = if image then Q.Barrier.with_image_force ~eps_r:3.9 b else b in
    let xs = Grid.linspace 0. (Q.Barrier.width b) 120 in
    Plot.Series.make ~label
      (Array.map (fun x -> (U.to_nm x, U.joule_to_ev (Q.Barrier.height_at b x))) xs)
  in
  Plot.Figure.make ~title:"Fig 2: FN triangular barrier (band diagram)"
    ~xlabel:"position in oxide [nm]" ~ylabel:"barrier energy above EF [eV]"
    [
      profile ~label:"E = 5 MV/cm" (U.mv_per_cm 5.);
      profile ~label:"E = 10 MV/cm" (U.mv_per_cm 10.);
      profile ~label:"E = 15 MV/cm" (U.mv_per_cm 15.);
      profile ~image:true ~label:"E = 10 MV/cm + image force" (U.mv_per_cm 10.);
    ]

let transient_series () =
  let t = Params.device () in
  match D.Transient.run t ~vgs:Params.vgs_program ~duration:10. with
  | Error e -> raise (Gnrflash_resilience.Solver_error.Solver_failure e)
  | Ok r -> r

let fig4_initial_currents () =
  let r = transient_series () in
  let early =
    Array.to_list r.D.Transient.samples
    |> List.filter (fun s -> s.D.Transient.time <= 1e-6)
  in
  let pick f =
    Array.of_list
      (List.filter_map
         (fun s ->
            let j = f s in
            if j > 0. && s.D.Transient.time > 0. then
              Some (s.D.Transient.time, U.to_a_per_cm2 j)
            else None)
         early)
  in
  let jin0, jout0 =
    match r.D.Transient.samples with
    | [||] -> (0., 0.)
    | samples -> (samples.(0).D.Transient.j_in, samples.(0).D.Transient.j_out)
  in
  let fig =
    Plot.Figure.make
      ~title:"Fig 4: Jin vs Jout at the start of programming (VGS=15V, GCR=0.6)"
      ~xlabel:"time [s]" ~ylabel:"J [A/cm^2]" ~xscale:Plot.Scale.Log10
      ~yscale:Plot.Scale.Log10
      [
        Plot.Series.make ~label:"Jin (channel -> FG)"
          (pick (fun s -> s.D.Transient.j_in));
        Plot.Series.make ~label:"Jout (FG -> control gate)"
          (pick (fun s -> s.D.Transient.j_out));
      ]
  in
  (fig, (U.to_a_per_cm2 jin0, U.to_a_per_cm2 jout0))

let fig5_transient () =
  let r = transient_series () in
  let pick f =
    Array.of_list
      (List.filter_map
         (fun s ->
            let j = f s in
            if j > 0. && s.D.Transient.time > 0. then
              Some (s.D.Transient.time, U.to_a_per_cm2 j)
            else None)
         (Array.to_list r.D.Transient.samples))
  in
  let fig =
    Plot.Figure.make ~title:"Fig 5: tunneling currents vs time (to tsat)"
      ~xlabel:"time [s]" ~ylabel:"J [A/cm^2]" ~xscale:Plot.Scale.Log10
      ~yscale:Plot.Scale.Log10
      [
        Plot.Series.make ~label:"Jin" (pick (fun s -> s.D.Transient.j_in));
        Plot.Series.make ~label:"Jout" (pick (fun s -> s.D.Transient.j_out));
      ]
  in
  (fig, r.D.Transient.tsat)

(* The Fig 6-9 families are full (parameter, VGS) Cartesian grids; Sweep.grid
   flattens them into one work queue so the domains load-balance across the
   whole surface rather than series by series. *)
let family_figure ~title ~label ~vgs_range ~params ~point =
  let fn = Params.fn () in
  let v0, v1 = vgs_range in
  let vgs_grid = Grid.linspace v0 v1 Params.sweep_points in
  let rows = Sweep.grid (point ~fn) ~outer:(Array.of_list params) ~inner:vgs_grid in
  let series =
    List.mapi (fun i p -> Plot.Series.make ~label:(label p) rows.(i)) params
  in
  Plot.Figure.make ~title ~xlabel:"VGS [V]" ~ylabel:"JFN [A/cm^2]"
    ~yscale:Plot.Scale.Log10 series

let gcr_family ~polarity ~vgs_range ~title =
  family_figure ~title ~vgs_range
    ~label:(fun gcr -> Printf.sprintf "GCR = %.0f%%" (gcr *. 100.))
    ~params:Params.gcr_values
    ~point:(fun ~fn gcr vgs ->
        jv_point ~fn ~polarity ~gcr ~xto:(U.nm Params.xto_default_nm) vgs)

let xto_family ~polarity ~vgs_range ~title =
  family_figure ~title ~vgs_range
    ~label:(fun xto_nm -> Printf.sprintf "XTO = %.0f nm" xto_nm)
    ~params:Params.xto_values_nm
    ~point:(fun ~fn xto_nm vgs ->
        jv_point ~fn ~polarity ~gcr:Params.gcr_default ~xto:(U.nm xto_nm) vgs)

let fig6_program_gcr () =
  gcr_family ~polarity:`Program ~vgs_range:Params.vgs_program_range
    ~title:"Fig 6 [Program]: JFN vs VGS for four GCR (XTO=5nm)"

let fig7_program_xto () =
  xto_family ~polarity:`Program ~vgs_range:Params.vgs_program_range_xto
    ~title:"Fig 7 [Program]: JFN vs VGS for five XTO (GCR=60%)"

let fig8_erase_gcr () =
  gcr_family ~polarity:`Erase ~vgs_range:Params.vgs_erase_range
    ~title:"Fig 8 [Erase]: JFN vs VGS for four GCR (XTO=5nm)"

let fig9_erase_xto () =
  xto_family ~polarity:`Erase ~vgs_range:Params.vgs_erase_range
    ~title:"Fig 9 [Erase]: JFN vs VGS for five XTO (GCR=60%)"

let all () =
  [
    ("fig2", fig2_band_diagram ());
    ("fig4", fst (fig4_initial_currents ()));
    ("fig5", fst (fig5_transient ()));
    ("fig6", fig6_program_gcr ());
    ("fig7", fig7_program_xto ());
    ("fig8", fig8_erase_gcr ());
    ("fig9", fig9_erase_xto ());
  ]
