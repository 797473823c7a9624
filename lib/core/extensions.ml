module Plot = Gnrflash_plot
module D = Gnrflash_device
module Q = Gnrflash_quantum
module M = Gnrflash_memory
module Mat = Gnrflash_materials
module U = Gnrflash_physics.Units
module C = Gnrflash_physics.Constants
module Grid = Gnrflash_numerics.Grid
module Tel = Gnrflash_telemetry.Telemetry
module Err = Gnrflash_resilience.Solver_error

(* ---------- Ext A: model accuracy ---------- *)

let default_fields = Grid.linspace 6. 18. 13

let model_comparison ?(fields_mv_cm = default_fields) () =
  let phi_b = U.ev_to_joule Params.phi_b_ev in
  let m_b = Params.m_ox_rel *. C.m0 in
  let thickness = U.nm Params.xto_default_nm in
  let ef = U.ev_to_joule 0.1 in
  let fn = Params.fn () in
  let models =
    [
      ("fn-closed-form", fun field -> Q.Fn.current_density fn ~field);
      ( "tsu-esaki/wkb",
        fun field ->
          Q.Tsu_esaki.current_density ~model:Q.Tsu_esaki.Wkb_model ~phi_b ~field
            ~thickness ~m_b ~ef () );
      ( "tsu-esaki/tmm",
        fun field ->
          Q.Tsu_esaki.current_density ~model:(Q.Tsu_esaki.Transfer_matrix_model 300)
            ~phi_b ~field ~thickness ~m_b ~ef () );
      ( "tsu-esaki/exact-airy",
        fun field ->
          Q.Tsu_esaki.current_density ~model:Q.Tsu_esaki.Exact_airy ~phi_b ~field
            ~thickness ~m_b ~ef () );
    ]
  in
  (* (model, field) product; the Tsu-Esaki integrals dominate, so balance
     them across domains rather than model by model *)
  let rows =
    Sweep.grid
      (fun (_, j_of) e_mv -> (e_mv, U.to_a_per_cm2 (j_of (U.mv_per_cm e_mv))))
      ~outer:(Array.of_list models) ~inner:fields_mv_cm
  in
  List.mapi (fun i (name, _) -> (name, rows.(i))) models

let model_figure () =
  let rows = model_comparison () in
  Plot.Figure.make ~title:"Ext A: JFN model comparison (phi_B=3.2eV, 5nm oxide)"
    ~xlabel:"oxide field [MV/cm]" ~ylabel:"J [A/cm^2]" ~yscale:Plot.Scale.Log10
    (List.map (fun (name, pts) -> Plot.Series.make ~label:name pts) rows)

(* ---------- Ext B: design-space optimization ---------- *)

type design_point = {
  gcr : float;
  xto_nm : float;
  program_time : float;
  peak_field : float;
  endurance : float;
  feasible : bool;
}

let evaluate_design ~gcr ~xto_nm =
  let base = Params.device () in
  let t = D.Fgt.with_xto (D.Fgt.with_gcr base gcr) (U.nm xto_nm) in
  let vgs = Params.vgs_program in
  let peak_field = D.Fgt.tunnel_field t ~vgs ~qfg:0. in
  let program_time =
    match D.Transient.time_to_threshold_shift t ~vgs ~dvt:2.0 ~max_time:1.0 with
    | Ok (Some time) -> time
    | Ok None -> infinity
    | Error e ->
      Tel.count ("extensions/program_time_fallback/" ^ Err.label e);
      infinity
  in
  let endurance = M.Endurance.predicted_endurance t ~vgs in
  let breakdown = Mat.Oxide.sio2.Mat.Oxide.breakdown_field in
  {
    gcr;
    xto_nm;
    program_time;
    peak_field;
    endurance;
    feasible = peak_field < breakdown && Float.is_finite program_time;
  }

let optimize_design () =
  let gcrs = Grid.linspace 0.45 0.7 6 in
  let xtos = Grid.linspace 4. 9. 6 in
  (* the full 6x6 design surface as one flat domain-parallel work queue *)
  let points =
    Sweep.grid (fun gcr xto_nm -> evaluate_design ~gcr ~xto_nm) ~outer:gcrs ~inner:xtos
    |> Array.to_list
    |> List.concat_map Array.to_list
  in
  let viable =
    List.filter (fun p -> p.feasible && p.endurance >= 1e4) points
  in
  let best =
    match viable with
    | [] ->
      (* fall back to the fastest feasible point regardless of endurance *)
      List.fold_left
        (fun acc p -> if p.program_time < acc.program_time then p else acc)
        (List.hd points) points
    | hd :: tl ->
      List.fold_left
        (fun acc p -> if p.program_time < acc.program_time then p else acc)
        hd tl
  in
  (best, points)

(* ---------- Ext C: retention ---------- *)

let retention_curve ?(dvt0 = 2.0) () =
  let t = Params.device () in
  let qfg0 = D.Fgt.qfg_for_threshold_shift t ~dvt:dvt0 in
  let ten_years = U.years 10. in
  let samples = D.Retention.simulate t ~qfg0 ~t_start:1e-3 ~t_end:ten_years in
  let series =
    Plot.Series.make ~label:(Printf.sprintf "dVT0 = %.1f V" dvt0)
      (Array.map (fun s -> (s.D.Retention.time, s.D.Retention.dvt)) samples)
  in
  let fig =
    Plot.Figure.make ~title:"Ext C: retention (threshold shift vs time)"
      ~xlabel:"time [s]" ~ylabel:"remaining dVT [V]" ~xscale:Plot.Scale.Log10
      [ series ]
  in
  (fig, D.Retention.charge_loss_percent t ~qfg0 ~after:ten_years)

(* ---------- Ext D: endurance ---------- *)

let endurance_curve ?(cycles = 10_000) ?surrogate () =
  let t = Params.device () in
  let short_pulse v = { D.Program_erase.vgs = v; duration = 100e-6 } in
  let run =
    M.Endurance.cycle_cell ~program_pulse:(short_pulse 15.)
      ~erase_pulse:(short_pulse (-15.)) ?surrogate t ~cycles
  in
  let pts label f =
    Plot.Series.make ~label
      (Array.of_list
         (List.map (fun s -> (float_of_int s.M.Endurance.cycle, f s)) run.M.Endurance.samples))
  in
  let fig =
    Plot.Figure.make ~title:"Ext D: P/E window vs cycling" ~xlabel:"cycles"
      ~ylabel:"VT [V]" ~xscale:Plot.Scale.Log10
      [
        pts "VT programmed" (fun s -> s.M.Endurance.vt_programmed);
        pts "VT erased" (fun s -> s.M.Endurance.vt_erased);
        pts "window" (fun s -> s.M.Endurance.window);
      ]
  in
  (fig, run.M.Endurance.cycles_survived)

type endurance_ensemble_summary = {
  cells : int;
  survived_all : int;
  cycles_min : int;
  cycles_median : int;
  cycles_max : int;
  digest : int;
}

(* perfbench's endurance_ensemble fold, cell by cell: cycles survived, how
   the run ended (0 budget, 1 window closed, 2 oxide broken, 3 any other
   failure), then each sample's window bits *)
let fold_run h (r : M.Endurance.run) =
  let outcome =
    match r.M.Endurance.failure with
    | None -> 0
    | Some "window closed" -> 1
    | Some "Cell: oxide broken" -> 2
    | Some _ -> 3
  in
  let fold = M.Workload.digest_fold in
  List.fold_left
    (fun h s -> fold h (Int64.to_int (Int64.bits_of_float s.M.Endurance.window)))
    (fold (fold h r.M.Endurance.cycles_survived) outcome)
    r.M.Endurance.samples

let endurance_ensemble ?(cells = 16) ?(cycles = 1_000) ?(seed = 2014)
    ?surrogate ?jobs () =
  if cells < 1 then invalid_arg "Extensions.endurance_ensemble: cells < 1";
  let base = Params.device () in
  let short_pulse v = { D.Program_erase.vgs = v; duration = 100e-6 } in
  (* cell [index] cycles the same perturbed device for every jobs setting
     (Variation.perturbed seeds from splitmix(seed, index)), so the
     ensemble is reproducible *)
  let runs =
    Sweep.init ?jobs cells (fun index ->
        let t = D.Variation.perturbed ~seed ~index ~base () in
        M.Endurance.cycle_cell ~program_pulse:(short_pulse 15.)
          ~erase_pulse:(short_pulse (-15.)) ?surrogate t ~cycles)
  in
  let survived = Array.map (fun r -> r.M.Endurance.cycles_survived) runs in
  let sorted = Array.copy survived in
  Array.sort compare sorted;
  {
    cells;
    survived_all =
      Array.fold_left (fun a c -> if c >= cycles then a + 1 else a) 0 survived;
    cycles_min = sorted.(0);
    cycles_median = sorted.(cells / 2);
    cycles_max = sorted.(cells - 1);
    digest = Array.fold_left fold_run M.Workload.digest_empty runs;
  }

(* ---------- Ext E: quantum capacitance ---------- *)

let stack layers =
  Mat.Mlgnr.make (Mat.Gnr.make Mat.Gnr.Armchair 12) ~layers

let effective_gcr t ~layers =
  let cq_per_area = Mat.Mlgnr.quantum_capacitance (stack layers) ~ef_ev:0.2 ~temp:300. in
  let cq = cq_per_area *. t.D.Fgt.area in
  let caps = D.Capacitance.with_quantum_capacitance t.D.Fgt.caps ~cq in
  D.Capacitance.gcr caps

let qcap_comparison ~layers =
  let t = Params.device () in
  List.map (fun n -> (n, D.Fgt.gcr t, effective_gcr t ~layers:n)) layers

let qcap_jv_figure () =
  let t = Params.device () in
  let curve ~label ~gcr =
    let pts =
      Figures.jv_sweep_gcr ~polarity:`Program ~gcr ~xto_nm:Params.xto_default_nm
        ~vgs_range:Params.vgs_program_range ~points:Params.sweep_points
    in
    Plot.Series.make ~label pts
  in
  let g0 = D.Fgt.gcr t in
  Plot.Figure.make ~title:"Ext E: quantum-capacitance correction to the J-V"
    ~xlabel:"VGS [V]" ~ylabel:"JFN [A/cm^2]" ~yscale:Plot.Scale.Log10
    [
      curve ~label:"geometric GCR (no Cq)" ~gcr:g0;
      curve ~label:"1-layer FG (with Cq)" ~gcr:(effective_gcr t ~layers:1);
      curve ~label:"5-layer FG (with Cq)" ~gcr:(effective_gcr t ~layers:5);
    ]

(* ---------- Ext F: NAND block demo ---------- *)

(* ---------- Ext K: retention after cycling ---------- *)

let retention_after_cycling () =
  let t = Params.device () in
  let fn = Params.fn () in
  let rel = D.Reliability.default in
  (* per-cycle fluence at the paper bias *)
  let per_cycle =
    match D.Transient.saturation_charge t ~vgs:Params.vgs_program with
    | Ok q -> 2. *. abs_float q /. t.D.Fgt.area /. C.q  (* electrons/m^2 *)
    | Error e ->
      Tel.count ("extensions/fluence_fallback/" ^ Err.label e);
      0.
  in
  (* self-field of a 2 V-programmed cell, the retention bias point *)
  let qfg0 = D.Fgt.qfg_for_threshold_shift t ~dvt:2. in
  let v_ox = -.D.Fgt.vfg t ~vgs:0. ~qfg:qfg0 in
  let j_fresh =
    Q.Direct_tunneling.current_density fn ~v_ox ~thickness:t.D.Fgt.xto
  in
  Sweep.map_list
    (fun cycles ->
       let traps = rel.D.Reliability.trap_per_charge *. per_cycle *. float_of_int cycles in
       let j_tat =
         if traps <= 0. then 0.
         else Q.Trap_assisted.current_density fn ~trap_density:traps ~v_ox
             ~thickness:t.D.Fgt.xto
       in
       let multiplier = (j_fresh +. j_tat) /. j_fresh in
       (cycles, traps, multiplier))
    [ 0; 100; 1_000; 10_000 ]

(* ---------- Ext L: MLC error budget ---------- *)

let mlc_error_budget () =
  Sweep.map_list
    (fun sigma -> M.Ber.analyze ~sigma_dvt:sigma ())
    [ 0.05; 0.1; 0.2; 0.3; 0.45; 0.6 ]

(* ---------- Ext M: temperature bake ---------- *)

let bake_test ?(dvt0 = 2.0) () =
  let t = Params.device () in
  let qfg0 = D.Fgt.qfg_for_threshold_shift t ~dvt:dvt0 in
  (* each temperature integrates a full retention trajectory - worth a domain *)
  let rows =
    Sweep.map_list
      (fun temp -> (temp, D.Retention.retention_time ~temp t ~qfg0 ~criterion:0.8))
      [ 300.; 358.; 398.; 438. ]
  in
  (* Arrhenius: ln t = Ea/kT + const, restricted to finite times *)
  let finite = List.filter (fun (_, time) -> Float.is_finite time) rows in
  let ea =
    if List.length finite < 2 then nan
    else begin
      let xs =
        Array.of_list (List.map (fun (temp, _) -> 1. /. (C.k_b *. temp)) finite)
      in
      let ys = Array.of_list (List.map (fun (_, time) -> log time) finite) in
      match Gnrflash_numerics.Regression.ols xs ys with
      | Ok fit -> fit.Gnrflash_numerics.Regression.slope /. C.ev
      | Error _ -> nan
    end
  in
  (rows, ea)

(* ---------- Ext N: ID-VG read window ---------- *)

let id_vg_figure ?(dvt_programmed = 5.0) () =
  let fet = D.Fet.default in
  let vgs = Grid.linspace 0. 8. 120 in
  let curve ~label ~dvt =
    Plot.Series.make ~label (D.Fet.transfer_curve fet ~dvt ~vds:0.05 ~vgs)
  in
  Plot.Figure.make ~title:"Ext N: read-transistor transfer curves"
    ~xlabel:"VGS [V]" ~ylabel:"ID [A]" ~yscale:Plot.Scale.Log10
    [
      curve ~label:"erased (dVT = 0)" ~dvt:0.;
      curve ~label:(Printf.sprintf "programmed (dVT = %.1f V)" dvt_programmed)
        ~dvt:dvt_programmed;
    ]

type nand_summary = {
  pages_written : int;
  verify_failures : int;
  disturb_dvt_max : float;
  mean_pulses : float;
}

let nand_page_demo ?(pages = 4) ?(strings = 8) () =
  let block = M.Nand_block.create (Params.device ()) ~pages ~strings in
  let checkerboard p = Array.init strings (fun s -> (p + s) mod 2) in
  let rec write p =
    if p >= pages then Ok ()
    else
      Result.bind (M.Nand_block.program_page block ~page:p ~data:(checkerboard p))
        (fun () -> write (p + 1))
  in
  Result.map
    (fun () ->
       let fails = ref 0 in
       for p = 0 to pages - 1 do
         if not (M.Nand_block.verify_page block ~page:p ~data:(checkerboard p))
         then incr fails
       done;
       (* worst drift among cells that were meant to stay erased *)
       let disturb_dvt_max = ref 0. in
       for p = 0 to pages - 1 do
         Array.iteri
           (fun s bit ->
              if bit = 1 then
                disturb_dvt_max :=
                  max !disturb_dvt_max (M.Nand_block.dvt block ~page:p ~string_:s))
           (checkerboard p)
       done;
       let stats = M.Nand_block.stats block in
       {
         pages_written = stats.M.Nand_block.programs;
         verify_failures = !fails;
         disturb_dvt_max = !disturb_dvt_max;
         mean_pulses =
           (if stats.M.Nand_block.programs = 0 then 0.
            else
              float_of_int stats.M.Nand_block.disturb_events
              /. float_of_int stats.M.Nand_block.programs);
       })
    (write 0)
