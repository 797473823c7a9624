(* Reproduction harness + microbenchmarks.

   Running this executable:
   1. regenerates every figure of the paper (the same series the paper
      plots), printing the numeric rows;
   2. runs the qualitative shape checks (who wins, what's monotone, where
      the crossover lies) — the pass/fail table recorded in EXPERIMENTS.md;
   3. regenerates the extension experiments (Ext A-F of DESIGN.md);
   4. times every generator with Bechamel (one Test.make per figure /
      experiment). *)

open Bechamel
open Bechamel.Toolkit
module Tel = Gnrflash_telemetry.Telemetry

let hr title =
  Printf.printf "\n=== %s %s\n" title (String.make (max 0 (66 - String.length title)) '=')

(* ---------- part 1: figure regeneration ---------- *)

(* One thunk per paper figure so each regeneration runs under its own
   telemetry span; the span timings become the per-figure wall-clock rows of
   BENCH_telemetry.json. *)
let figure_generators =
  [
    ("fig2", fun () -> Gnrflash.Figures.fig2_band_diagram ());
    ("fig4", fun () -> fst (Gnrflash.Figures.fig4_initial_currents ()));
    ("fig5", fun () -> fst (Gnrflash.Figures.fig5_transient ()));
    ("fig6", fun () -> Gnrflash.Figures.fig6_program_gcr ());
    ("fig7", fun () -> Gnrflash.Figures.fig7_program_xto ());
    ("fig8", fun () -> Gnrflash.Figures.fig8_erase_gcr ());
    ("fig9", fun () -> Gnrflash.Figures.fig9_erase_xto ());
  ]

let print_figures () =
  hr "Paper figures (regenerated series)";
  List.iter
    (fun (name, gen) ->
       let fig = Tel.span ("figure/" ^ name) gen in
       print_newline ();
       print_string (Gnrflash.Report.series_table fig ~max_rows:6))
    figure_generators

let print_checks () =
  hr "Shape checks (paper vs model)";
  let checks = Tel.span "checks" Gnrflash.Report.all_checks in
  print_string (Gnrflash.Report.render checks);
  List.for_all (fun c -> c.Gnrflash.Report.passed) checks

(* Ablations of design choices called out in DESIGN.md. *)
let print_ablations () =
  hr "Ablation: image-force barrier lowering";
  let phi = 3.2 *. Gnrflash_physics.Constants.ev in
  let m = 0.42 *. Gnrflash_physics.Constants.m0 in
  List.iter
    (fun field_mv ->
       let field = field_mv *. 1e8 in
       let bare = Gnrflash_quantum.Barrier.triangular ~phi_b:phi ~field ~m_eff:m in
       let rounded = Gnrflash_quantum.Barrier.with_image_force ~eps_r:3.9 bare in
       let e = 0.05 *. Gnrflash_physics.Constants.ev in
       let t_bare = Gnrflash_quantum.Wkb.transmission bare ~energy:e in
       let t_img = Gnrflash_quantum.Wkb.transmission rounded ~energy:e in
       Printf.printf "  %5.1f MV/cm: T_bare=%.3e  T_image=%.3e  boost=%.1fx\n" field_mv
         t_bare t_img (t_img /. t_bare))
    [ 8.; 12.; 16. ];
  hr "Ablation: eq(3) divider vs 1D Poisson";
  let stack = Gnrflash_device.Electrostatics.of_fgt (Gnrflash.Params.device ()) in
  List.iter
    (fun sigma ->
       match Gnrflash_device.Electrostatics.solve stack ~vgs:15. ~vs:0. ~sigma_fg:sigma with
       | Ok s ->
         let divider =
           Gnrflash_device.Electrostatics.vfg_divider stack ~vgs:15. ~vs:0.
             ~sigma_fg:sigma
         in
         Printf.printf "  sigma=%9.2e C/m^2: VFG poisson=%.4f V divider=%.4f V\n" sigma
           s.Gnrflash_device.Electrostatics.vfg divider
       | Error e -> Printf.printf "  poisson failed: %s\n" e)
    [ 0.; -0.005; -0.02 ];
  hr "Ablation: SILC (trap-assisted) retention multiplier";
  let fn = Gnrflash.Params.fn () in
  List.iter
    (fun nt ->
       let r =
         Gnrflash_quantum.Trap_assisted.silc_ratio fn ~trap_density:nt ~v_ox:1.2
           ~thickness:5e-9
       in
       Printf.printf "  N_t=%8.1e /m^2: J_TAT/J_direct = %.3e\n" nt r)
    [ 1e13; 1e14; 1e15 ];
  hr "Ablation: transfer-matrix staircase convergence";
  let barrier = Gnrflash_quantum.Barrier.triangular ~phi_b:phi ~field:1.2e9 ~m_eff:m in
  let e = 0.2 *. Gnrflash_physics.Constants.ev in
  let reference =
    Gnrflash_quantum.Transfer_matrix.transmission ~steps:3200 barrier ~energy:e
  in
  List.iter
    (fun steps ->
       let t = Gnrflash_quantum.Transfer_matrix.transmission ~steps barrier ~energy:e in
       Printf.printf "  %5d steps: T=%.6e (vs 3200-step ref: %+.2f%%)\n" steps t
         (100. *. ((t /. reference) -. 1.)))
    [ 50; 100; 200; 400; 800 ];
  hr "System: FN vs CHE page energy";
  List.iter
    (fun (k, v) -> Printf.printf "  %-22s %.4e\n" k v)
    (Gnrflash_memory.Energy.page_program_comparison ~cells:4096);
  hr "System: FTL write amplification";
  let module F = Gnrflash_memory.Ftl in
  let module W = Gnrflash_memory.Workload in
  List.iter
    (fun (name, pattern) ->
       let ftl = F.create F.default_config in
       let trace =
         W.generate ~seed:2014 pattern ~pages:(F.logical_capacity ftl) ~strings:1
           ~ops:8000 ~read_fraction:0.
       in
       match F.run_trace ftl trace with
       | Error e -> Printf.printf "  %-12s failed: %s\n" name (F.error_to_string e)
       | Ok () ->
         let s = F.stats ftl in
         Printf.printf "  %-12s WA=%.3f gc=%d wear-spread=%.0f\n" name
           s.F.write_amplification s.F.gc_runs (F.wear_spread ftl))
    [ ("sequential", W.Sequential); ("uniform", W.Uniform); ("zipf-1.3", W.Zipf 1.3) ];
  hr "Ext K: retention after cycling (SILC)";
  List.iter
    (fun (cycles, traps, mult) ->
       Printf.printf "  %6d cycles: N_t=%9.2e /m^2  leakage x%.3f\n" cycles traps mult)
    (Gnrflash.Extensions.retention_after_cycling ());
  hr "Ext L: MLC error budget (variation -> BER -> ECC)";
  List.iter
    (fun (a : Gnrflash_memory.Ber.analysis) ->
       Printf.printf "  sigma=%.2f V: raw BER=%.3e page-fail=%.3e %s\n"
         a.Gnrflash_memory.Ber.sigma_dvt a.Gnrflash_memory.Ber.raw_ber
         a.Gnrflash_memory.Ber.page_failure
         (if a.Gnrflash_memory.Ber.acceptable then "OK" else "FAIL"))
    (Gnrflash.Extensions.mlc_error_budget ());
  Printf.printf "  max tolerable sigma: %.3f V\n"
    (Gnrflash_memory.Ber.max_tolerable_sigma ());
  hr "Ablation: square vs ramped program pulse";
  (* same total time; the ramp reaches nearly the same dVT while the peak
     tunnel-oxide field (the oxide-wear driver) is much lower *)
  let device = Gnrflash.Params.device () in
  let peak_field_of segments =
    (* peak field occurs at each segment start, before charge accumulates *)
    let q = ref 0. and peak = ref 0. in
    List.iter
      (fun (vgs, duration) ->
         if vgs <> 0. then begin
           peak :=
             max !peak
               (abs_float (Gnrflash_device.Fgt.tunnel_field device ~vgs ~qfg:!q));
           match Gnrflash_device.Transient.run ~qfg0:!q device ~vgs ~duration with
           | Ok r -> q := r.Gnrflash_device.Transient.qfg_final
           | Error _ -> ()
         end)
      segments;
    (!peak, Gnrflash_device.Fgt.threshold_shift device ~qfg:!q)
  in
  (* (vgs, duration) segments *)
  let square = [ (15., 100e-6) ] in
  let ramp = List.init 9 (fun i -> (11. +. (float_of_int i *. 0.5), 100e-6 /. 9.)) in
  let peak_sq, dvt_sq = peak_field_of square in
  let peak_rp, dvt_rp = peak_field_of ramp in
  Printf.printf "  square 15 V/100 us: peak field %.1f MV/cm, dVT = %.2f V\n"
    (peak_sq /. 1e8) dvt_sq;
  Printf.printf "  ramp 11->15 V:      peak field %.1f MV/cm, dVT = %.2f V\n"
    (peak_rp /. 1e8) dvt_rp;
  hr "Ablation: dynamic MLGNR quantum-capacitance feedback";
  List.iter
    (fun layers ->
       let stack =
         Gnrflash_materials.Mlgnr.make
           (Gnrflash_materials.Gnr.make Gnrflash_materials.Gnr.Armchair 12)
           ~layers
       in
       match Gnrflash_device.Qcap.run ~stack (Gnrflash.Params.device ()) ~vgs:15.
               ~duration:1e-2 with
       | Ok r ->
         Printf.printf
           "  %d-layer FG: dVT %.3f V (metal ref %.3f V), window shrink %.1f%%, EF %.3f eV\n"
           layers r.Gnrflash_device.Qcap.dvt_final
           r.Gnrflash_device.Qcap.dvt_final_metal
           (100. *. r.Gnrflash_device.Qcap.window_shrink)
           r.Gnrflash_device.Qcap.ef_final_ev
       | Error e -> Printf.printf "  %d-layer FG: failed (%s)\n" layers e)
    [ 1; 3; 8 ];
  hr "Ext M: temperature bake (Arrhenius)";
  let bake_rows, ea = Gnrflash.Extensions.bake_test () in
  List.iter
    (fun (temp, time) ->
       Printf.printf "  T=%3.0f K (%3.0f C): t(80%% charge) = %s\n" temp (temp -. 273.)
         (if Float.is_finite time then Printf.sprintf "%.3e s" time else ">100 years"))
    bake_rows;
  Printf.printf "  extracted Ea = %.3f eV (model: 0.300 eV)\n" ea;
  hr "System: process variation";
  let module V = Gnrflash_device.Variation in
  let base = Gnrflash.Params.device () in
  (match V.summarize (V.sample_devices ~seed:2014 ~base ~n:100 ()) with
   | Ok s ->
     Printf.printf
       "  100 devices: t_med=%.2e s, p95/p5=%.1fx, sigma(dVT)=%.3f V, dXTO sens=%.2f dec/nm\n"
       s.V.t_prog_median s.V.t_prog_spread s.V.dvt_sigma (V.sensitivity_xto base)
   | Error msg -> Printf.printf "  variation summary unavailable: %s\n" msg)

let print_extensions () =
  hr "Ext A: JFN model comparison";
  List.iter
    (fun (name, pts) ->
       Printf.printf "  %-24s" name;
       Array.iter (fun (e, j) -> Printf.printf " %8.1f->%9.2e" e j)
         (Array.sub pts 0 (min 4 (Array.length pts)));
       print_newline ())
    (Gnrflash.Extensions.model_comparison ~fields_mv_cm:[| 8.; 11.; 14.; 17. |] ());
  hr "Ext B: design optimization";
  let best, points = Gnrflash.Extensions.optimize_design () in
  Printf.printf "  evaluated %d design points\n" (List.length points);
  Printf.printf "  best feasible: GCR=%.2f XTO=%.1fnm t_prog=%.3e s E=%.1f MV/cm endurance=%.2e\n"
    best.Gnrflash.Extensions.gcr best.Gnrflash.Extensions.xto_nm
    best.Gnrflash.Extensions.program_time
    (best.Gnrflash.Extensions.peak_field /. 1e8)
    best.Gnrflash.Extensions.endurance;
  hr "Ext C: retention";
  let _, loss = Gnrflash.Extensions.retention_curve () in
  Printf.printf "  10-year charge loss at dVT0 = 2 V: %.4f %%\n" loss;
  hr "Ext D: endurance";
  let _, survived = Gnrflash.Extensions.endurance_curve ~cycles:2000 () in
  Printf.printf "  cycles survived (budget 2000): %d\n" survived;
  hr "Ext E: quantum-capacitance correction";
  List.iter
    (fun (n, g0, g_eff) ->
       Printf.printf "  %d-layer FG: geometric GCR %.3f -> effective %.3f\n" n g0 g_eff)
    (Gnrflash.Extensions.qcap_comparison ~layers:[ 1; 2; 3; 5; 10 ]);
  hr "Ext F: NAND page program";
  match Gnrflash.Extensions.nand_page_demo () with
  | Error e -> Printf.printf "  FAILED: %s\n" e
  | Ok s ->
    Printf.printf "  pages=%d verify_failures=%d max_disturb_dVT=%.4f V mean_pulses=%.1f\n"
      s.Gnrflash.Extensions.pages_written s.Gnrflash.Extensions.verify_failures
      s.Gnrflash.Extensions.disturb_dvt_max s.Gnrflash.Extensions.mean_pulses

(* ---------- part 2: sweep-engine scaling ---------- *)

module Sweep = Gnrflash.Sweep

type scaling_row = {
  serial_s : float;    (* fastest of [scaling_rounds] serial runs *)
  parallel_s : float;  (* fastest of [scaling_rounds] parallel runs *)
  identical : bool;
  pool_rounds : int;   (* parallel rounds whose sweep ran the domain pool *)
}

type scaling = {
  cores : int;
  pool_jobs : int;
  grid : scaling_row;
  monte_carlo : scaling_row;
  pool_spawned : int;  (* pool domains spawned for the in-process rows *)
  mc_flushes : int;    (* most telemetry flushes in one parallel MC sweep *)
}

let time_wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Each side of an in-process row is timed as the fastest of this many
   rounds, serial and parallel alternating, so one slow round (host load,
   a busy vCPU) cannot set the verdict. *)
let scaling_rounds = 5

(* The rows' sizes: each row's one Sweep call must cost well over
   [Sweep]'s 5 ms auto-serial cutoff, or the parallel side runs serially
   after its probe and the row times noise around 1x. The Fig 6/7 J-V
   grids themselves cost ~0.6 ms (closed-form points of ~0.1 us, below
   the probe's clock resolution), and a 120-device ensemble ~4 ms. The
   probe extrapolates from the first two elements, so the transient grid
   starts at 10 V (~30 us per solve; at 8 V a solve takes ~10 us and the
   probe would send the grid serial). *)
let grid_vgs_points = 64
let mc_devices = 600

(* Serial vs domain-pool wall clock on the two hottest sweep shapes: a
   (device, VGS) grid of exact program transients to saturation over the
   Fig 6/7 families (each element ~40-60 us, uniform enough across VGS
   for the probe) and a Monte-Carlo variation ensemble, both compared
   bit-exactly via Marshal (so NaNs don't defeat the check). The pool
   always runs at least 2 domains so the parallel path is exercised even
   on a single-core host — where oversubscription means no speedup is
   expected and the honest numbers (plus the core count) go into
   BENCH_telemetry.json. *)
let sweep_scaling () =
  hr "Sweep engine: serial vs parallel wall clock";
  let cores = Sweep.available_jobs () in
  let pool_jobs = max 2 (min 4 cores) in
  let module P = Gnrflash.Params in
  let module F = Gnrflash_device.Fgt in
  let device gcr xto_nm = F.with_xto (F.with_gcr F.paper_default gcr) (xto_nm *. 1e-9) in
  let devices =
    Array.of_list
      (List.map (fun gcr -> device gcr P.xto_default_nm) P.gcr_values
       @ List.map (device P.gcr_default) P.xto_values_nm)
  in
  let v0, v1 = P.vgs_program_range_xto in
  let vgs =
    Array.init grid_vgs_points (fun i ->
        v0 +. ((v1 -. v0) *. float_of_int i /. float_of_int (grid_vgs_points - 1)))
  in
  let program_to_saturation dev vgs =
    match Gnrflash_device.Transient.pulse dev ~vgs ~duration:10. with
    | Ok r -> (r.Gnrflash_device.Transient.dvt_final, r.Gnrflash_device.Transient.tsat)
    | Error _ -> (nan, None)
  in
  let grid jobs () =
    Marshal.to_string (Sweep.grid ~jobs program_to_saturation ~outer:devices ~inner:vgs) []
  in
  let mc jobs () =
    Gnrflash_device.Variation.sample_devices ~jobs
      ~base:Gnrflash_device.Fgt.paper_default ~n:mc_devices ()
  in
  (* Fastest of [scaling_rounds] alternating rounds per side; the outputs
     of the first round are the ones compared. Pool workers flush their
     telemetry sink once per sweep whether or not counters are on, so a
     parallel round that moved [Tel.flush_count] ran the pool: the
     [sweep/auto_serial] counter would need telemetry on, which slows the
     probe and can flip its decision. *)
  let rounds serial parallel =
    let first = ref None and ts = ref infinity and tp = ref infinity in
    let times = ref [] and pool_rounds = ref 0 and max_flushes = ref 0 in
    for _ = 1 to scaling_rounds do
      let a, t_s = time_wall serial in
      let flushes = Tel.flush_count () in
      let b, t_p = time_wall parallel in
      let flushes = Tel.flush_count () - flushes in
      if flushes > 0 then incr pool_rounds;
      max_flushes := max !max_flushes flushes;
      if !first = None then first := Some (a, b);
      ts := Float.min !ts t_s;
      tp := Float.min !tp t_p;
      times := (t_s, t_p) :: !times
    done;
    match !first with
    | Some (a, b) -> (a, b, !ts, !tp, List.rev !times, !pool_rounds, !max_flushes)
    | None -> assert false
  in
  let g1, gp, tg1, tgp, grid_times, grid_pool_rounds, _ =
    rounds (grid 1) (grid pool_jobs)
  in
  (* parallel-overhead budget: telemetry is batched (one flush per
     participating worker per sweep) and the pool is process-lifetime (the
     grid run spawned it; the MC runs must reuse it) *)
  let m1, mp, tm1, tmp, mc_times, mc_pool_rounds, mc_flushes =
    rounds (mc 1) (mc pool_jobs)
  in
  let pool_spawned = Sweep.pool_spawned () in
  let row serial_s parallel_s identical pool_rounds =
    { serial_s; parallel_s; identical; pool_rounds }
  in
  let report name (r : scaling_row) times =
    Printf.printf
      "  %-24s serial %7.1f ms  %d-domain %7.1f ms  speedup %.2fx  output %s  \
       pool ran in %d/%d rounds\n"
      name (r.serial_s *. 1e3) pool_jobs (r.parallel_s *. 1e3)
      (r.serial_s /. r.parallel_s)
      (if r.identical then "identical" else "DIFFERS")
      r.pool_rounds scaling_rounds;
    Printf.printf "  %-24s rounds (serial/parallel ms):%s\n" ""
      (String.concat ""
         (List.map (fun (a, b) -> Printf.sprintf " %.1f/%.1f" (a *. 1e3) (b *. 1e3)) times))
  in
  let grid = row tg1 tgp (String.equal g1 gp) grid_pool_rounds in
  let monte_carlo =
    row tm1 tmp (String.equal (Marshal.to_string m1 []) (Marshal.to_string mp []))
      mc_pool_rounds
  in
  report
    (Printf.sprintf "fig6+fig7 %dx%d transients" (Array.length devices) grid_vgs_points)
    grid grid_times;
  report (Printf.sprintf "variation n=%d" mc_devices) monte_carlo mc_times;
  Printf.printf
    "  overhead budget: pool spawned %d domain(s) (<= %d jobs), %d telemetry \
     flush(es) on the parallel MC sweep (<= %d jobs)\n"
    pool_spawned pool_jobs mc_flushes pool_jobs;
  if cores < pool_jobs then
    Printf.printf
      "  (host has %d core(s) for %d domains: oversubscribed, no speedup expected)\n"
      cores pool_jobs;
  { cores; pool_jobs; grid; monte_carlo; pool_spawned; mc_flushes }

(* The scale-out gate: outputs must be identical on every tier, overhead
   must stay inside budget everywhere, every parallel round of the
   in-process rows must have run the pool (a round that fell back to
   serial measures nothing), and on a host with real cores the in-process
   tier must not be slower than serial (>= 0.9x; single-core hosts report
   honestly instead of failing, since oversubscribed domains cannot
   win). *)
let scaling_ok (s : scaling) =
  let speedup (r : scaling_row) = r.serial_s /. r.parallel_s in
  let identical = s.grid.identical && s.monte_carlo.identical in
  let pool_ran =
    s.grid.pool_rounds = scaling_rounds && s.monte_carlo.pool_rounds = scaling_rounds
  in
  let speedups_ok =
    s.cores < 2
    || (speedup s.grid >= 0.9 && speedup s.monte_carlo >= 0.9)
  in
  let overhead_ok =
    s.pool_spawned <= s.pool_jobs && s.mc_flushes <= s.pool_jobs
  in
  identical && pool_ran && speedups_ok && overhead_ok

(* ---------- part 3: bechamel timing ---------- *)

let stage f = Staged.stage f

let figure_tests =
  [
    Test.make ~name:"fig2-band-diagram"
      (stage (fun () -> ignore (Gnrflash.Figures.fig2_band_diagram ())));
    Test.make ~name:"fig4-initial-currents"
      (stage (fun () -> ignore (Gnrflash.Figures.fig4_initial_currents ())));
    Test.make ~name:"fig5-transient"
      (stage (fun () -> ignore (Gnrflash.Figures.fig5_transient ())));
    Test.make ~name:"fig6-program-gcr"
      (stage (fun () -> ignore (Gnrflash.Figures.fig6_program_gcr ())));
    Test.make ~name:"fig7-program-xto"
      (stage (fun () -> ignore (Gnrflash.Figures.fig7_program_xto ())));
    Test.make ~name:"fig8-erase-gcr"
      (stage (fun () -> ignore (Gnrflash.Figures.fig8_erase_gcr ())));
    Test.make ~name:"fig9-erase-xto"
      (stage (fun () -> ignore (Gnrflash.Figures.fig9_erase_xto ())));
  ]

let extension_tests =
  [
    Test.make ~name:"ext-a-model-ablation"
      (stage (fun () ->
           ignore
             (Gnrflash.Extensions.model_comparison ~fields_mv_cm:[| 10.; 14. |] ())));
    Test.make ~name:"ext-b-design-point"
      (stage (fun () -> ignore (Gnrflash.Extensions.evaluate_design ~gcr:0.6 ~xto_nm:5.)));
    Test.make ~name:"ext-c-retention"
      (stage (fun () -> ignore (Gnrflash.Extensions.retention_curve ())));
    Test.make ~name:"ext-d-endurance-100"
      (stage (fun () -> ignore (Gnrflash.Extensions.endurance_curve ~cycles:100 ())));
    Test.make ~name:"ext-e-qcap"
      (stage (fun () -> ignore (Gnrflash.Extensions.qcap_comparison ~layers:[ 1; 5 ])));
    Test.make ~name:"ext-f-nand-page"
      (stage (fun () -> ignore (Gnrflash.Extensions.nand_page_demo ~pages:1 ~strings:4 ())));
  ]

let kernel_tests =
  let fn = Gnrflash.Params.fn () in
  let phi = 3.2 *. Gnrflash_physics.Constants.ev in
  let m = 0.42 *. Gnrflash_physics.Constants.m0 in
  let barrier = Gnrflash_quantum.Barrier.triangular ~phi_b:phi ~field:1.2e9 ~m_eff:m in
  [
    Test.make ~name:"kernel-fn-closed-form"
      (stage (fun () -> ignore (Gnrflash_quantum.Fn.current_density fn ~field:1.2e9)));
    Test.make ~name:"kernel-wkb-quadrature"
      (stage (fun () ->
           ignore (Gnrflash_quantum.Wkb.transmission barrier ~energy:1e-21)));
    Test.make ~name:"kernel-transfer-matrix-400"
      (stage (fun () ->
           ignore
             (Gnrflash_quantum.Transfer_matrix.transmission ~steps:400 barrier
                ~energy:(0.1 *. Gnrflash_physics.Constants.ev))));
    Test.make ~name:"kernel-airy-exact"
      (stage (fun () ->
           ignore
             (Gnrflash_quantum.Triangular_exact.transmission_fn ~phi_b:phi ~field:1.2e9
                ~thickness:5e-9 ~m_b:m ~m_e:Gnrflash_physics.Constants.m0
                ~energy:(0.1 *. Gnrflash_physics.Constants.ev))));
    Test.make ~name:"kernel-program-transient"
      (stage (fun () ->
           ignore
             (Gnrflash_device.Transient.run Gnrflash_device.Fgt.paper_default ~vgs:15.
                ~duration:10.)));
  ]

(* One 64-word x 13-bit sector of the served path, half of it programmed,
   then erased until its cells settle: every later [erase_round] replays
   its 832 pulses by charge id. Built when the timing part runs. *)
let sector_erase_test () =
  let module S = Gnrflash_memory.Cell_store in
  let module PE = Gnrflash_device.Program_erase in
  let s = S.create ~n:832 (Gnrflash.Params.device ()) in
  let pm = S.memo s and em = S.memo s in
  for i = 0 to 831 do
    if i mod 2 = 0 then
      ignore
        (S.program_verify s ~memo:pm ~pulse:PE.default_program_pulse ~max_pulses:8 i)
  done;
  let round () =
    ignore (S.erase_round s ~memo:em ~pulse:PE.default_erase_pulse ~lo:0 ~hi:831)
  in
  for _ = 1 to 8 do
    round ()
  done;
  Test.make ~name:"kernel-sector-erase-832" (stage round)

(* One 64-word x 13-bit program of the served path over a settled sector,
   of varied data: [word_draws] draws in turn, too many for a branch
   predictor to learn, as the served path's data is.
   Every run programs a fresh copy of the sector, made outside the timed
   stage: bechamel allocates one resource per run before it times a
   batch, and each allocation blits the settled sector into the next of
   [word_slots] slots of one store, so every run starts from the same
   cells and memo answers and none is cycled toward oxide breakdown.
   [word_cfg] keeps a batch (plus the resource bechamel allocates first)
   within the ring. *)
let word_slots = 128
let word_draws = 61

let word_program_test () =
  let module S = Gnrflash_memory.Cell_store in
  let module PE = Gnrflash_device.Program_erase in
  let words = 64 and bits = 13 in
  let sector = words * bits in
  let s = S.create ~n:((word_slots + 1) * sector) (Gnrflash.Params.device ()) in
  let pm = S.memo s and em = S.memo s in
  for i = 0 to sector - 1 do
    if i mod 2 = 0 then
      ignore
        (S.program_verify s ~memo:pm ~pulse:PE.default_program_pulse ~max_pulses:8 i)
  done;
  for _ = 1 to 8 do
    ignore
      (S.erase_round s ~memo:em ~pulse:PE.default_erase_pulse ~lo:0 ~hi:(sector - 1))
  done;
  let slot k = (1 + (k mod word_slots)) * sector in
  let copied = ref 0 and programmed = ref 0 in
  let copy () =
    S.blit s ~src:0 ~dst:(slot !copied) ~len:sector;
    incr copied
  in
  let data =
    Array.init (word_draws * words) (fun i ->
        Sweep.splitmix ~seed:2014 ~index:i land ((1 lsl bits) - 1))
  in
  let out = S.word_outcome () in
  let program () =
    let k = !programmed in
    incr programmed;
    let draw = k mod word_draws * words in
    for w = 0 to words - 1 do
      S.program_word s ~memo:pm ~pulse:PE.default_program_pulse ~max_pulses:8
        ~base:(slot k + (w * bits)) ~bits ~data:data.(draw + w) out
    done
  in
  (* warm-up: every draw once, so the settled charges' program
     transitions are memoized *)
  for _ = 1 to word_draws do
    copy ();
    program ()
  done;
  Test.make_with_resource ~name:"kernel-word-program-64x13" Test.multiple
    ~allocate:copy ~free:ignore (stage program)

let system_tests =
  [
    Test.make ~name:"system-poisson-solve"
      (stage (fun () ->
           let stack =
             Gnrflash_device.Electrostatics.of_fgt Gnrflash_device.Fgt.paper_default
           in
           ignore
             (Gnrflash_device.Electrostatics.solve stack ~vgs:15. ~vs:0.
                ~sigma_fg:(-0.01))));
    Test.make ~name:"system-mlc-program-4-levels"
      (stage
         (let engine =
            Gnrflash_device.Program_erase.engine Gnrflash_device.Fgt.paper_default
          in
          fun () ->
            for level = 1 to 3 do
              ignore (Gnrflash_memory.Mlc.program_level engine ~qfg0:0. ~level)
            done));
    Test.make ~name:"system-ecc-encode-decode-64"
      (stage
         (let data = Array.init 64 (fun i -> i land 1) in
          fun () ->
            match Gnrflash_memory.Ecc.decode ~k:64 (Gnrflash_memory.Ecc.encode data) with
            | Gnrflash_memory.Ecc.Clean _ -> ()
            | _ -> failwith "ecc"));
    Test.make ~name:"system-ftl-1000-writes"
      (stage (fun () ->
           let module F = Gnrflash_memory.Ftl in
           let ftl = F.create F.default_config in
           let rec go n =
             if n > 0 then
               match F.write_in_place ftl ~lpn:(n mod 100) with
               | Ok () -> go (n - 1)
               | Error _ -> ()
           in
           go 1000));
    Test.make ~name:"system-variation-10-devices"
      (stage (fun () ->
           ignore
             (Gnrflash_device.Variation.sample_devices
                ~base:Gnrflash_device.Fgt.paper_default ~n:10 ())));
  ]

(* Returns each row's OLS time per run [ns] and r^2, for the JSON. *)
let run_benchmarks () =
  hr "Bechamel microbenchmarks";
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.3) ~kde:(Some 100) () in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  (* the default sampling times batches of 1, 2, .. 100 runs here *)
  let word_cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.3) ~kde:(Some 100) () in
  let all_tests =
    List.map (fun t -> (cfg, t))
      (figure_tests @ extension_tests @ kernel_tests @ [ sector_erase_test () ])
    @ [ (word_cfg, word_program_test ()) ]
    @ List.map (fun t -> (cfg, t)) system_tests
  in
  Printf.printf "  %-28s %14s %10s\n" "benchmark" "time/run" "r^2";
  List.concat_map
    (fun (cfg, test) ->
       List.map
         (fun (name, result) ->
            let est = Analyze.one ols Instance.monotonic_clock result in
            let ns =
              match Analyze.OLS.estimates est with
              | Some [ e ] -> e
              | _ -> nan
            in
            let r2 = match Analyze.OLS.r_square est with Some r -> r | None -> nan in
            let time_str =
              if ns > 1e9 then Printf.sprintf "%.3f s" (ns /. 1e9)
              else if ns > 1e6 then Printf.sprintf "%.3f ms" (ns /. 1e6)
              else if ns > 1e3 then Printf.sprintf "%.3f us" (ns /. 1e3)
              else Printf.sprintf "%.1f ns" ns
            in
            Printf.printf "  %-28s %14s %10.4f\n" name time_str r2;
            (name, ns, r2))
         (Benchmark.all cfg instances test |> Hashtbl.to_seq |> List.of_seq
          |> List.sort compare))
    all_tests

(* ---------- part 4: telemetry artifact ---------- *)

(* ---------- hot-path RHS/quadrature budgets ---------- *)

(* Counter-budget regression gate for the hot-path acceleration work
   (ISSUE 5). Budgets are derived from the seed's measured eval counts on
   the same telemetry-on workloads (Ext A/B/D plus the figures), divided by
   the minimum speedup the acceleration must deliver:

     - program_erase pulse RHS evals: seed 3,292,338 -> budget /3
       (FSAL stepper + warm-started pulse trains + limit-cycle replay)
     - WKB quadrature fn evals inside Tsu-Esaki: seed 223,396 -> budget /5
       (memoized closed-form transmission, one adaptive recursion per node
        replaced by an O(segments) closed form)

   Exceeding a budget fails the bench run non-zero, exactly like a shape
   check or lint regression. Re-baselining requires editing these constants
   and justifying the change. *)

let contains_sub ~sub s =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  lb = 0 || go 0

type perf_row = {
  metric : string;
  measured : int;
  budget : int;
  seed_baseline : int;
}

let perf_rows snap =
  let total ?(mid = "") ~suffix () =
    List.fold_left
      (fun acc (name, v) ->
         if String.ends_with ~suffix name && contains_sub ~sub:mid name then
           acc + v
         else acc)
      0 snap.Tel.counters
  in
  [
    {
      metric = "pulse_rhs_evals";
      measured = total ~mid:"program_erase/pulse/" ~suffix:"ode/rhs_eval" ();
      budget = 3_292_338 / 3;
      seed_baseline = 3_292_338;
    };
    {
      metric = "tsu_esaki_quad_fn_evals";
      measured =
        total ~mid:"tsu_esaki/current_density" ~suffix:"quad/fn_eval" ();
      budget = 223_396 / 5;
      seed_baseline = 223_396;
    };
  ]

(* Flag plumbing probe, run while telemetry is still on: a short pulse
   train on one engine and a Tsu-Esaki call under perf/flags_on (the
   warm-start, replay and WKB-cache counters must fire), then the same
   train with a fresh engine per pulse under perf/flags_off (the
   warm-start and replay counters must stay silent). The span prefix keys
   the two runs apart in the snapshot. *)
let perf_probe () =
  let phi_b = 3.2 *. Gnrflash_physics.Constants.ev in
  let m_b = 0.42 *. Gnrflash_physics.Constants.m0 in
  let ef = 0.1 *. Gnrflash_physics.Constants.ev in
  let train ~engine =
    let pp = { Gnrflash_device.Program_erase.vgs = 15.; duration = 100e-6 } in
    let ep = { Gnrflash_device.Program_erase.vgs = -15.; duration = 100e-6 } in
    let q = ref 0. in
    for _ = 1 to 6 do
      List.iter
        (fun pulse ->
           match
             Gnrflash_device.Program_erase.apply_pulse (engine ()) ~qfg:!q pulse
           with
           | Ok o -> q := o.Gnrflash_device.Program_erase.qfg_after
           | Error _ -> ())
        [ pp; ep ]
    done
  in
  (* surrogate off: it outranks the replay cache, so with it on the warm
     counters this probe asserts on would never fire *)
  let cold () =
    Gnrflash_device.Program_erase.engine ~surrogate:false
      Gnrflash_device.Fgt.paper_default
  in
  Tel.span "perf/flags_on" (fun () ->
      let warm = cold () in
      train ~engine:(fun () -> warm);
      ignore
        (Gnrflash_quantum.Tsu_esaki.current_density ~phi_b ~field:1.2e9
           ~thickness:5e-9 ~m_b ~ef ()));
  Tel.span "perf/flags_off" (fun () -> train ~engine:cold)

(* ---------- pulse-surrogate probe and gates ---------- *)

module Ps = Gnrflash_device.Pulse_surrogate
module Dpe = Gnrflash_device.Program_erase

(* Counter probe, telemetry on (mirrors perf_probe): a short cycle train
   on one engine with the surrogate on must build tables (each polarity is
   promoted on its third pulse) and serve hits, an out-of-box pulse must
   fall back; the same train with the surrogate off must leave every
   surrogate counter silent. *)
let surrogate_probe () =
  let train ~surrogate =
    let e = Dpe.engine ~surrogate Gnrflash_device.Fgt.paper_default in
    let pp = { Dpe.vgs = 15.; duration = 100e-6 } in
    let ep = { Dpe.vgs = -15.; duration = 100e-6 } in
    let q = ref 0. in
    for _ = 1 to 4 do
      match Dpe.cycle ~program_pulse:pp ~erase_pulse:ep e ~qfg:!q with
      | Ok (_, o) -> q := o.Dpe.qfg_after
      | Error _ -> ()
    done;
    ignore (Dpe.apply_pulse e ~qfg:0. { Dpe.vgs = 18.; duration = 100e-6 })
  in
  Tel.span "perf/surrogate_on" (fun () -> train ~surrogate:true);
  Tel.span "perf/surrogate_off" (fun () -> train ~surrogate:false)

type surrogate_report = {
  sur_flags_on_ok : bool;
  sur_flags_off_ok : bool;
  sur_builds : int;
  sur_hits : int;
  sur_fallbacks : int;
  sur_bound : float;        (* worst certified bound across probed tables *)
  sur_divergence : float;   (* worst measured divergence vs exact *)
  sur_div_ok : bool;        (* every divergence within its table's bound *)
  sur_exact_s : float;      (* per-pulse wall clock, exact ODE path *)
  sur_pulse_s : float;      (* per-pulse wall clock, surrogate-served *)
  sur_rounds : (float * float) list;  (* every round's (exact, surrogate) *)
  sur_speedup : float;
  sur_build_s : float;      (* summed table build CPU time *)
}

let surrogate_speedup_gate = 100.

(* Each side of the speed-up is the fastest of this many rounds, exact and
   surrogate alternating: one round is a few ms of wall clock, so a single
   one let host load (or the suites running beside the smoke) set the
   verdict. *)
let surrogate_rounds = 5

(* Timing + certification report, telemetry off (production config, like
   the microbenchmarks). Divergence is checked with each table's own
   divergence metric against a fresh exact solve at deterministic probe
   points; the per-pulse speedup is measured through the full
   apply_pulse serving path against cold exact solves. *)
let surrogate_report snap =
  let under prefix suffix =
    List.fold_left
      (fun acc (name, v) ->
         if String.starts_with ~prefix name && String.ends_with ~suffix name
         then acc + v
         else acc)
      0 snap.Tel.counters
  in
  let on s = under "perf/surrogate_on/" s and off s = under "perf/surrogate_off/" s in
  let sur_flags_on_ok =
    on "surrogate/build" > 0 && on "surrogate/hit" > 0 && on "surrogate/fallback" > 0
  in
  let sur_flags_off_ok =
    off "surrogate/build" = 0 && off "surrogate/hit" = 0
    && off "surrogate/fallback" = 0
  in
  let t = Gnrflash_device.Fgt.paper_default in
  let build vgs =
    match Ps.build t ~vgs with
    | Ok tab -> tab
    | Error e ->
      Printf.eprintf "bench: surrogate build failed: %s\n"
        (Gnrflash_resilience.Solver_error.to_string e);
      exit 1
  in
  let tab_p = build 15. and tab_e = build (-15.) in
  let sur_build_s = Ps.build_seconds tab_p +. Ps.build_seconds tab_e in
  let worst_div = ref 0. and div_ok = ref true in
  let probe tab vgs =
    let lo, hi = Ps.qfg_range tab in
    List.iter
      (fun (u, d) ->
         let qfg = lo +. (u *. (hi -. lo)) in
         match Ps.query tab ~qfg ~duration:d with
         | None -> ()
         | Some r ->
           (match Gnrflash_device.Transient.run ~qfg0:qfg t ~vgs ~duration:d with
            | Error _ -> div_ok := false
            | Ok ex ->
              let dv =
                Ps.divergence tab ~exact:ex.Gnrflash_device.Transient.qfg_final
                  ~approx:r.Ps.qfg_after
              in
              if dv > !worst_div then worst_div := dv;
              if dv > Ps.certified_bound tab then div_ok := false))
      [ (0., 1e-6); (0.15, 1e-5); (0.35, 1e-4); (0.5, 3e-4); (0.65, 1e-3);
        (0.85, 1e-2); (1., 1e-5); (0.5, 1e-9); (0.5, 1e-1) ]
  in
  probe tab_p 15.;
  probe tab_e (-15.);
  (* per-pulse wall clock: cold exact solves vs table-served apply_pulse *)
  let lo, hi = Ps.qfg_range tab_p in
  let n_exact = 8 in
  let exact_round () =
    let t0 = Unix.gettimeofday () in
    for i = 0 to n_exact - 1 do
      let qfg = lo +. (float_of_int i /. float_of_int n_exact *. (hi -. lo)) in
      ignore (Gnrflash_device.Transient.run ~qfg0:qfg t ~vgs:15. ~duration:100e-6)
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int n_exact
  in
  let e = Dpe.engine t in
  let pulse = { Dpe.vgs = 15.; duration = 100e-6 } in
  (* two warm-up consults; the third builds the table *)
  for _ = 1 to 3 do ignore (Dpe.apply_pulse e ~qfg:0. pulse) done;
  let surrogate_round () =
    let n = 20_000 in
    let t0 = Unix.gettimeofday () in
    for i = 0 to n - 1 do
      let qfg = lo +. (float_of_int (i mod 997) /. 997. *. (hi -. lo)) in
      ignore (Dpe.apply_pulse e ~qfg pulse)
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int n
  in
  let sur_rounds =
    List.init surrogate_rounds (fun _ ->
        let x = exact_round () in
        (x, surrogate_round ()))
  in
  let fastest side = List.fold_left (fun acc r -> Float.min acc (side r)) infinity sur_rounds in
  let sur_exact_s = fastest fst and sur_pulse_s = fastest snd in
  {
    sur_flags_on_ok;
    sur_flags_off_ok;
    sur_builds = on "surrogate/build";
    sur_hits = on "surrogate/hit";
    sur_fallbacks = on "surrogate/fallback";
    sur_bound = Float.max (Ps.certified_bound tab_p) (Ps.certified_bound tab_e);
    sur_divergence = !worst_div;
    sur_div_ok = !div_ok;
    sur_exact_s;
    sur_pulse_s;
    sur_rounds;
    sur_speedup = sur_exact_s /. sur_pulse_s;
    sur_build_s;
  }

let print_surrogate s =
  hr "Perf: certified pulse surrogate";
  Printf.printf
    "  probe counters: builds=%d hits=%d fallbacks=%d  flags on %s, flags off %s\n"
    s.sur_builds s.sur_hits s.sur_fallbacks
    (if s.sur_flags_on_ok then "fire" else "SILENT (regression)")
    (if s.sur_flags_off_ok then "silent" else "FIRE (flag plumbing broken)");
  Printf.printf
    "  divergence vs exact: %.3e (certified bound %.3e)  %s\n"
    s.sur_divergence s.sur_bound
    (if s.sur_div_ok then "ok" else "OUT OF BOUND");
  Printf.printf
    "  per pulse: exact %.3e s, surrogate %.3e s  (%.0fx, gate %.0fx)  %s\n"
    s.sur_exact_s s.sur_pulse_s s.sur_speedup surrogate_speedup_gate
    (if s.sur_speedup >= surrogate_speedup_gate then "ok" else "TOO SLOW");
  Printf.printf "  rounds (exact/surrogate s, fastest of each side counts):%s\n"
    (String.concat ""
       (List.map (fun (x, p) -> Printf.sprintf " %.2e/%.2e" x p) s.sur_rounds));
  s.sur_flags_on_ok && s.sur_flags_off_ok && s.sur_div_ok
  && s.sur_speedup >= surrogate_speedup_gate

type perf = {
  rows : perf_row list;
  flags_on_ok : bool;
  flags_off_ok : bool;
}

let perf_of_snapshot snap =
  let under prefix suffix =
    List.fold_left
      (fun acc (name, v) ->
         if String.starts_with ~prefix name && String.ends_with ~suffix name
         then acc + v
         else acc)
      0 snap.Tel.counters
  in
  let on p = under "perf/flags_on/" p and off p = under "perf/flags_off/" p in
  {
    rows = perf_rows snap;
    flags_on_ok =
      on "transient/warm_start_hit" > 0
      && on "program_erase/pulse_replay" > 0
      && on "wkb/cache_hit" > 0
      && on "wkb/cache_build" > 0;
    flags_off_ok =
      off "transient/warm_start_hit" = 0
      && off "program_erase/pulse_replay" = 0;
  }

let print_perf perf =
  hr "Perf: hot-path eval budgets (vs seed baselines)";
  List.iter
    (fun r ->
       Printf.printf "  %-26s %9d evals  budget %9d  seed %9d  (%5.1fx)  %s\n"
         r.metric r.measured r.budget r.seed_baseline
         (float_of_int r.seed_baseline /. float_of_int (max 1 r.measured))
         (if r.measured <= r.budget then "ok" else "OVER BUDGET"))
    perf.rows;
  Printf.printf "  warm-start/cache counters: flags on %s, flags off %s\n"
    (if perf.flags_on_ok then "fire" else "SILENT (regression)")
    (if perf.flags_off_ok then "silent" else "FIRE (flag plumbing broken)");
  List.for_all (fun r -> r.measured <= r.budget) perf.rows
  && perf.flags_on_ok && perf.flags_off_ok

(* ---------- command-level service fleet gate ---------- *)

module Svc = Gnrflash_memory.Service
module Wkl = Gnrflash_memory.Workload

(* End-to-end gate for the command-level NOR service (ISSUE 8, scaled to
   >= 1e6 aggregate ops by ISSUE 10's SoA cell store): a fleet of
   independent service instances pushes host traffic through the FTL and
   mirrors every journaled physical op onto the JEDEC command FSM. Gates:
   zero lost ops, zero data mismatches, zero protocol errors, FTL
   invariants intact, the fleet's folded trace/state digests bit-identical
   across the execution tiers (--jobs 2 vs the serial run)
   AND equal to the seed record-based cell path on the reference workload,
   plus (full mode) the throughput floor and the minor-heap allocation
   budget below. --quick runs a reduced fleet with the correctness gates
   only. *)

(* 3x the ISSUE 8 record-based baseline (38.6k ops/s serial tier on the
   reference host) — the ISSUE 10 acceptance floor. *)
let svc_ops_per_s_floor = 115_800.

(* Minor-heap allocation budget for the service hot loop, measured as
   [Gc.minor_words] delta per host command on a single serial instance
   (the pool tier runs in other domains, invisible to the probe). The
   SoA store runs the memoized program/erase replays and their verify
   reads allocation-free through its fused kernels — including settled
   out-of-box outcomes (see Cell_store / Program_erase.memoizable) — and
   the served path carries each word as one packed int through the
   word-level kernels and the memoized packed SEC-DED decode, and the
   first-occurrence exact solves run an unboxed scalar stepper over a
   fused rate kernel; [run_trace] generates each command as it executes
   it; the FTL journal is walked in place, the FSM's op state is
   int-coded, and [exec] reads the model clock unboxed and counts each
   latency in place in a table of distinct values, so warm writes, trims
   and unmapped reads allocate nothing. The residual is the commands
   themselves, the mapped reads' [Data] answers, the report, and the
   first-occurrence solves' boxed RHS calls and trajectories — see
   DESIGN.md "Cell store" and "Exact transient". Measured 13.38 words/op
   on a 2-vCPU x86-64 VM with OCaml 5.1.1 (the probe is deterministic:
   20.4 when the latency table replaced the per-command latency buffer,
   39.7 before the in-place journal and the unboxed clock and op state, 291
   before the streamed command generation and the unboxed report, 429
   before the allocation-free transient, 546 before the packed words, 630
   before the fused kernels); the budget leaves ~15% headroom. *)
let svc_alloc_budget = 15.4

(* Fleet digests of the seed record-based cell path on the reference
   workloads (8 instances, seed 2014, splitmix per-instance seeds,
   default config), captured immediately before the SoA refactor. The
   store must reproduce them bit-for-bit. *)
let svc_ref_full = (0x220177D6E385E5D6, 0x359CE3F68DF1567C) (* 8 x 13_000 *)
let svc_ref_quick = (0x2B1EBC781D8A520D, 0x329D851F83DC4DF0) (* 8 x 250 *)

type service_stats = {
  svc_instances : int;
  svc_per_instance : int;
  svc_ops : int;
  svc_lost : int;
  svc_mismatches : int;
  svc_bad_sequences : int;
  svc_invariant_failures : string list;
  svc_trace_digest : int;
  svc_state_digest : int;
  svc_jobs_identical : bool;
  svc_ref_identical : bool;
      (* reference-workload digests match the record-based path *)
  svc_alloc_words_per_op : float;
  svc_perf_gated : bool; (* full mode: throughput + alloc gates apply *)
  svc_wall_s : float;
  svc_jobs2_wall_s : float; (* data only: no wall-clock gate on the tiers *)
  svc_ops_per_s : float;
  svc_latency : Svc.latency_summary;
}

let service_fleet ~jobs ~instances ~per_instance ~seed =
  (* serial_cutoff 0: force the pool path so the jobs tier is actually
     exercised, not auto-serialized away *)
  Gnrflash.Sweep.init ~jobs ~serial_cutoff:0. instances (fun i ->
      let seed_i = Gnrflash.Sweep.splitmix ~seed ~index:i in
      let s = Svc.create (Gnrflash.Params.device ()) in
      Svc.run_trace ~seed:seed_i ~ops:per_instance s)

let fleet_digests results =
  let fold f =
    Array.fold_left (fun acc r -> Wkl.digest_fold acc (f r)) Wkl.digest_empty
      results
  in
  (fold (fun r -> r.Svc.trace_digest), fold (fun r -> r.Svc.state_digest))

let service_report ~quick () =
  let instances = 8 in
  let per_instance = if quick then 250 else 130_000 in
  let seed = 2014 in
  (* allocation probe first, on a dedicated serial instance in this
     domain: Gc.minor_words only observes the calling domain, and the
     fleets below run inside the domain pool *)
  let alloc_ops = if quick then 250 else 13_000 in
  let alloc_w =
    let s = Svc.create (Gnrflash.Params.device ()) in
    let m0 = Gc.minor_words () in
    let (_ : Svc.report) =
      Svc.run_trace
        ~seed:(Gnrflash.Sweep.splitmix ~seed ~index:0)
        ~ops:alloc_ops s
    in
    (Gc.minor_words () -. m0) /. float_of_int alloc_ops
  in
  let timed_fleet ~jobs =
    let t0 = Unix.gettimeofday () in
    let r = service_fleet ~jobs ~instances ~per_instance ~seed in
    (r, Unix.gettimeofday () -. t0)
  in
  let base, wall = timed_fleet ~jobs:1 in
  let jobs2, jobs2_wall = timed_fleet ~jobs:2 in
  let td, sd = fleet_digests base in
  (* record-path equality: in quick mode the base fleet IS the 8 x 250
     reference workload; in full mode rerun the 8 x 13_000 reference *)
  let ref_identical =
    if quick then (td, sd) = svc_ref_quick
    else
      fleet_digests
        (service_fleet ~jobs:1 ~instances ~per_instance:13_000 ~seed)
      = svc_ref_full
  in
  let sum f = Array.fold_left (fun a r -> a + f r) 0 base in
  let ops = sum (fun r -> r.Svc.ops) in
  {
    svc_instances = instances;
    svc_per_instance = per_instance;
    svc_ops = ops;
    svc_lost = sum (fun r -> r.Svc.lost_ops);
    svc_mismatches =
      sum (fun r -> r.Svc.read_mismatches + r.Svc.verify_mismatches);
    svc_bad_sequences =
      sum (fun r -> r.Svc.fsm.Gnrflash_memory.Command_fsm.bad_sequences);
    svc_invariant_failures =
      Array.fold_left
        (fun acc r ->
           match r.Svc.invariant_error with None -> acc | Some e -> e :: acc)
        [] base;
    svc_trace_digest = td;
    svc_state_digest = sd;
    svc_jobs_identical = fleet_digests jobs2 = (td, sd);
    svc_ref_identical = ref_identical;
    svc_alloc_words_per_op = alloc_w;
    svc_perf_gated = not quick;
    svc_wall_s = wall;
    svc_jobs2_wall_s = jobs2_wall;
    svc_ops_per_s = float_of_int ops /. Float.max wall 1e-9;
    svc_latency =
      Svc.latency_summary (Array.map (fun r -> r.Svc.latency) base);
  }

let service_ok s =
  s.svc_lost = 0 && s.svc_mismatches = 0 && s.svc_bad_sequences = 0
  && s.svc_invariant_failures = [] && s.svc_jobs_identical
  && s.svc_ref_identical
  && (not s.svc_perf_gated
      || s.svc_ops >= 1_000_000
         && s.svc_ops_per_s >= svc_ops_per_s_floor
         && s.svc_alloc_words_per_op <= svc_alloc_budget)

let print_service s =
  hr "Service: command-level NOR fleet (FTL -> JEDEC command FSM)";
  Printf.printf "  fleet            %d instances x %d host commands\n"
    s.svc_instances s.svc_per_instance;
  Printf.printf "  throughput       %.0f ops/s wall (%.2f s serial tier)%s\n"
    s.svc_ops_per_s s.svc_wall_s
    (if not s.svc_perf_gated then ""
     else if s.svc_ops_per_s >= svc_ops_per_s_floor then
       Printf.sprintf "  >= %.0f ok" svc_ops_per_s_floor
     else Printf.sprintf "  BELOW FLOOR %.0f" svc_ops_per_s_floor);
  Printf.printf "  minor alloc      %.1f words/op (budget %.1f)  %s\n"
    s.svc_alloc_words_per_op svc_alloc_budget
    (if not s.svc_perf_gated then "not gated (--quick)"
     else if s.svc_alloc_words_per_op <= svc_alloc_budget then "ok"
     else "OVER BUDGET");
  Printf.printf "  tier wall        %.2f s --jobs 2 (not gated)\n"
    s.svc_jobs2_wall_s;
  Printf.printf "  latency p50/p95/p99  %.3e / %.3e / %.3e s (model)\n"
    s.svc_latency.Svc.p50 s.svc_latency.Svc.p95 s.svc_latency.Svc.p99;
  Printf.printf "  lost ops         %d  %s\n" s.svc_lost
    (if s.svc_lost = 0 then "ok" else "LOST");
  Printf.printf "  data mismatches  %d  %s\n" s.svc_mismatches
    (if s.svc_mismatches = 0 then "ok" else "CORRUPT");
  Printf.printf "  protocol errors  %d  %s\n" s.svc_bad_sequences
    (if s.svc_bad_sequences = 0 then "ok" else "BAD SEQUENCE");
  List.iter
    (fun e -> Printf.printf "  INVARIANT VIOLATION: %s\n" e)
    s.svc_invariant_failures;
  Printf.printf "  trace digest     0x%016X\n" s.svc_trace_digest;
  Printf.printf "  state digest     0x%016X\n" s.svc_state_digest;
  Printf.printf "  --jobs 2 tier    %s\n"
    (if s.svc_jobs_identical then "bit-identical" else "DIVERGED");
  Printf.printf "  record-path ref  %s\n"
    (if s.svc_ref_identical then "bit-identical" else "DIVERGED");
  service_ok s

(* ---------- static-analysis gate ---------- *)

module Lint = Gnrflash_lint_engine.Lint_engine

(* The bench doubles as a CI gate for gnrflash-lint: record the rule
   counts in BENCH_telemetry.json and fail the run if any unsuppressed
   finding exists, so a lint regression cannot ship silently. *)
(* The default config's L14 roots are bin/, bench/, examples/ and
   perfbench/; their .cmts come from their @check aliases, not from
   building this executable. *)
let run_lint () =
  hr "Static analysis (gnrflash-lint over lib/)";
  let config = Lint.default_config in
  let report = Lint.run ~config ~root:(Lint.locate_root ()) ~subdir:"lib" () in
  let unsuppressed = Lint.unsuppressed report in
  let suppressed = Lint.suppressed report in
  List.iter
    (fun f -> Printf.printf "  %s\n" (Lint.render_finding f))
    unsuppressed;
  Printf.printf "  %d file(s), %d rule(s): %d finding(s), %d suppressed\n"
    report.Lint.files_scanned
    (List.length Lint.all_rules)
    (List.length report.Lint.findings)
    (List.length suppressed);
  if report.Lint.roots_scanned = 0 then
    Printf.printf
      "  L14 skipped: no .cmt under %s (run `dune build @check` first)\n"
      (String.concat ", " config.Lint.roots)
  else
    Printf.printf "  L14 roots: %d module(s) under %s\n" report.Lint.roots_scanned
      (String.concat ", " config.Lint.roots);
  List.iter
    (fun (r, unsup, sup) ->
      if unsup + sup > 0 then
        Printf.printf "    %s: %d unsuppressed, %d suppressed\n"
          (Lint.rule_id r) unsup sup)
    (Lint.by_rule report);
  report

(* Machine-readable bench trajectory: per-figure wall-clock timings, the
   serial-vs-parallel scaling rows, the Bechamel rows, plus the full
   counter/span snapshot, written next to the repo's other BENCH data. *)
let write_bench_telemetry ~path ~checks_passed ~scaling ~perf ~surrogate ~service
    ~bechamel ~lint snap =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"schema\":\"gnrflash-bench-telemetry/1\",";
  Buffer.add_string b
    (Printf.sprintf "\"checks_passed\":%b,\"figures\":{" checks_passed);
  let prefix = "figure/" in
  let figures =
    List.filter_map
      (fun (name, (s : Tel.span_stat)) ->
         if String.starts_with ~prefix name then begin
           let rest =
             String.sub name (String.length prefix)
               (String.length name - String.length prefix)
           in
           (* top-level figure spans only; nested solver spans stay in the
              full telemetry section *)
           if String.contains rest '/' then None else Some (rest, s.Tel.total_s)
         end
         else None)
      snap.Tel.spans
  in
  List.iteri
    (fun i (name, seconds) ->
       if i > 0 then Buffer.add_char b ',';
       Buffer.add_string b (Printf.sprintf "\"%s\":%.6e" name seconds))
    figures;
  let scaling_row (r : scaling_row) =
    Printf.sprintf
      "{\"serial_s\":%.6e,\"parallel_s\":%.6e,\"speedup\":%.3f,\"identical\":%b,\
       \"pool_rounds\":%d}"
      r.serial_s r.parallel_s (r.serial_s /. r.parallel_s) r.identical r.pool_rounds
  in
  Buffer.add_string b
    (Printf.sprintf
       "},\"sweep\":{\"cores\":%d,\"jobs\":%d,\"grid\":%s,\"monte_carlo\":%s,\
        \"rounds\":%d,\"overhead\":{\"pool_spawned\":%d,\"mc_flushes\":%d},\
        \"scaling_ok\":%b}"
       scaling.cores scaling.pool_jobs (scaling_row scaling.grid)
       (scaling_row scaling.monte_carlo) scaling_rounds
       scaling.pool_spawned scaling.mc_flushes (scaling_ok scaling));
  Buffer.add_string b ",\"perf\":{";
  List.iteri
    (fun i r ->
       if i > 0 then Buffer.add_char b ',';
       Buffer.add_string b
         (Printf.sprintf
            "\"%s\":{\"measured\":%d,\"budget\":%d,\"seed_baseline\":%d,\"ok\":%b}"
            r.metric r.measured r.budget r.seed_baseline (r.measured <= r.budget)))
    perf.rows;
  Buffer.add_string b
    (Printf.sprintf "%s\"flags_on_ok\":%b,\"flags_off_ok\":%b}"
       (if perf.rows = [] then "" else ",")
       perf.flags_on_ok perf.flags_off_ok);
  Buffer.add_string b
    (Printf.sprintf
       ",\"surrogate\":{\"build_s\":%.6e,\"builds\":%d,\"hits\":%d,\
        \"fallbacks\":%d,\"certified_bound\":%.6e,\"max_divergence\":%.6e,\
        \"divergence_ok\":%b,\"per_pulse_exact_s\":%.6e,\
        \"per_pulse_surrogate_s\":%.6e,\"speedup\":%.1f,\"speedup_gate\":%.0f,\
        \"flags_on_ok\":%b,\"flags_off_ok\":%b}"
       surrogate.sur_build_s surrogate.sur_builds surrogate.sur_hits
       surrogate.sur_fallbacks surrogate.sur_bound surrogate.sur_divergence
       surrogate.sur_div_ok surrogate.sur_exact_s surrogate.sur_pulse_s
       surrogate.sur_speedup surrogate_speedup_gate surrogate.sur_flags_on_ok
       surrogate.sur_flags_off_ok);
  Buffer.add_string b
    (Printf.sprintf
       ",\"service\":{\"instances\":%d,\"ops\":%d,\"ops_per_s\":%.1f,\
        \"wall_s\":%.3f,\"jobs2_wall_s\":%.3f,\
        \"ops_per_s_floor\":%.0f,\"alloc_words_per_op\":%.1f,\
        \"alloc_budget\":%.1f,\
        \"latency_model_s\":{\"p50\":%.6e,\"p95\":%.6e,\"p99\":%.6e},\
        \"lost_ops\":%d,\"mismatches\":%d,\"bad_sequences\":%d,\
        \"invariant_failures\":%d,\"trace_digest\":\"0x%016X\",\
        \"state_digest\":\"0x%016X\",\"jobs_identical\":%b,\
        \"ref_identical\":%b,\"ok\":%b}"
       service.svc_instances service.svc_ops service.svc_ops_per_s
       service.svc_wall_s service.svc_jobs2_wall_s
       svc_ops_per_s_floor service.svc_alloc_words_per_op svc_alloc_budget
       service.svc_latency.Svc.p50 service.svc_latency.Svc.p95
       service.svc_latency.Svc.p99 service.svc_lost
       service.svc_mismatches service.svc_bad_sequences
       (List.length service.svc_invariant_failures) service.svc_trace_digest
       service.svc_state_digest service.svc_jobs_identical
       service.svc_ref_identical
       (service_ok service));
  Buffer.add_string b ",\"bechamel\":{";
  List.iteri
    (fun i (name, ns, r2) ->
       if i > 0 then Buffer.add_char b ',';
       (* a failed fit is nan, which JSON cannot hold *)
       let num x = if Float.is_finite x then Printf.sprintf "%.6e" x else "null" in
       Buffer.add_string b
         (Printf.sprintf "\"%s\":{\"ns_per_run\":%s,\"r_square\":%s}" name (num ns)
            (num r2)))
    bechamel;
  Buffer.add_char b '}';
  Buffer.add_string b
    (Printf.sprintf
       ",\"lint\":{\"rules_checked\":%d,\"roots_scanned\":%d,\"findings\":%d,\
        \"suppressed\":%d,\"by_rule\":{%s}}"
       (List.length Lint.all_rules) lint.Lint.roots_scanned
       (List.length lint.Lint.findings)
       (List.length (Lint.suppressed lint))
       (String.concat ","
          (List.map
             (fun (r, unsup, sup) ->
               Printf.sprintf "\"%s\":{\"unsuppressed\":%d,\"suppressed\":%d}"
                 (Lint.rule_id r) unsup sup)
             (Lint.by_rule lint))));
  Buffer.add_string b ",\"telemetry\":";
  Buffer.add_string b (Tel.render_json snap);
  Buffer.add_string b "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc;
  Printf.printf "\nwrote %s (%d figure timings, %d counters)\n" path
    (List.length figures) (List.length snap.Tel.counters)

let () =
  (* --quick: the counter-budget smoke run wired into `dune runtest` — the
     telemetry-on workloads, the shape checks, and the perf budgets, but no
     bechamel timing, no scaling comparison, no lint pass, and no JSON
     artifact. A budget regression fails the test suite, not just the full
     bench. *)
  let quick = Array.exists (String.equal "--quick") Sys.argv in
  Tel.reset ();
  Tel.enable ();
  print_figures ();
  let checks_passed = print_checks () in
  print_extensions ();
  print_ablations ();
  perf_probe ();
  surrogate_probe ();
  let snap = Tel.snapshot () in
  (* run the scaling comparison and the microbenchmarks with telemetry
     disabled so both measure the production (counters-off) configuration *)
  Tel.disable ();
  let perf = perf_of_snapshot snap in
  let perf_ok = print_perf perf in
  let sur = surrogate_report snap in
  let sur_ok = print_surrogate sur in
  (* telemetry already off: the service fleet must not inflate the
     hot-path eval budgets measured above *)
  let service = service_report ~quick () in
  let service_passed = print_service service in
  if quick then begin
    hr "Done (quick)";
    if not checks_passed then prerr_endline "bench: qualitative shape checks FAILED";
    if not perf_ok then prerr_endline "bench: perf eval budgets exceeded";
    if not sur_ok then
      prerr_endline "bench: pulse-surrogate certification or speedup gate FAILED";
    if not service_passed then
      prerr_endline
        "bench: command-level service gate FAILED (lost ops, data \
         mismatch, protocol error, tier or record-path divergence, \
         throughput floor, or alloc budget)";
    exit (if checks_passed && perf_ok && sur_ok && service_passed then 0 else 1)
  end;
  let scaling = sweep_scaling () in
  let bechamel = run_benchmarks () in
  let lint = run_lint () in
  write_bench_telemetry ~path:"BENCH_telemetry.json" ~checks_passed ~scaling ~perf
    ~surrogate:sur ~service ~bechamel ~lint snap;
  let lint_failed = Lint.unsuppressed lint <> [] in
  let scale_ok = scaling_ok scaling in
  hr "Done";
  if not checks_passed || lint_failed || not perf_ok
     || not sur_ok || not scale_ok || not service_passed
  then begin
    if not checks_passed then
      prerr_endline "bench: qualitative shape checks FAILED";
    if lint_failed then
      prerr_endline "bench: unsuppressed gnrflash-lint findings";
    if not perf_ok then
      prerr_endline "bench: perf eval budgets exceeded or flag plumbing broken";
    if not sur_ok then
      prerr_endline "bench: pulse-surrogate certification or speedup gate FAILED";
    if not scale_ok then
      prerr_endline
        "bench: parallel scale-out gate FAILED (non-identical output, \
         sub-0.9x speedup on a multi-core host, or overhead over budget)";
    if not service_passed then
      prerr_endline
        "bench: command-level service gate FAILED (lost ops, data \
         mismatch, protocol error, tier or record-path divergence, \
         throughput floor, or alloc budget)";
    exit 1
  end
