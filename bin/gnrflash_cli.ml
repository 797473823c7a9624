(* gnrflash command-line interface: regenerate the paper's figures and run
   the extension experiments from the shell. *)

open Cmdliner

let out_formats = [ ("ascii", `Ascii); ("svg", `Svg); ("csv", `Csv) ]

let format_arg =
  let doc = "Output format: ascii (terminal), svg, or csv." in
  Arg.(value & opt (enum out_formats) `Ascii & info [ "format"; "f" ] ~doc)

let out_dir_arg =
  let doc = "Directory for svg/csv output files." in
  Arg.(value & opt string "figures" & info [ "out"; "o" ] ~doc)

(* ---- domain-parallel sweeps ---- *)

let jobs_arg =
  let doc =
    "Domain pool size for the parameter sweeps (figure grids, Monte-Carlo \
     ensembles). 1 runs the plain serial path; output is bit-identical for \
     every $(docv)."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let with_jobs jobs f =
  if jobs < 1 then begin
    prerr_endline "gnrflash: --jobs must be >= 1";
    exit 2
  end;
  Gnrflash.Sweep.set_default_jobs jobs;
  f ()

(* ---- solver telemetry ---- *)

module Telemetry = Gnrflash.Telemetry

let stats_arg =
  let doc =
    "Collect solver telemetry (ODE steps, RHS/root-finder evaluations, \
     span timings) and print a snapshot after the run; \
     $(docv) is 'text' or 'json'."
  in
  Arg.(value
       & opt (some (enum [ ("text", `Text); ("json", `Json) ])) None
       & info [ "stats" ] ~docv:"FORMAT" ~doc)

(* ---- solver budgets ---- *)

module Resilience = Gnrflash.Resilience

let budget_ms_arg =
  let doc =
    "Wall-clock budget for the solver work, in milliseconds. When the \
     budget runs out the solvers stop cooperatively and report a typed \
     budget_exhausted error (exit code 3) instead of running on."
  in
  Arg.(value & opt (some float) None & info [ "budget-ms" ] ~docv:"MS" ~doc)

(* Install a wall-clock budget (when requested) for the dynamic extent of
   [f]; an exhausted budget escaping as an exception exits with code 3. *)
let with_budget budget_ms f =
  match budget_ms with
  | None -> f ()
  | Some ms ->
    if ms <= 0. then begin
      prerr_endline "gnrflash: --budget-ms must be > 0";
      exit 2
    end;
    (try Resilience.Budget.with_budget (Resilience.Budget.make ~wall_ms:ms ()) f
     with Resilience.Solver_error.Solver_failure e ->
       let msg = Resilience.Solver_error.to_string e in
       match e.Resilience.Solver_error.kind with
       | Resilience.Solver_error.Budget_exhausted _ ->
         prerr_endline ("budget exhausted: " ^ msg);
         exit 3
       | _ ->
         prerr_endline ("solver failure: " ^ msg);
         exit 1)

(* Run [f] with telemetry enabled when requested, then print the snapshot. *)
let with_stats stats f =
  match stats with
  | None -> f ()
  | Some format ->
    Telemetry.reset ();
    Telemetry.enable ();
    Fun.protect
      ~finally:(fun () ->
        let snap = Telemetry.snapshot () in
        Telemetry.disable ();
        match format with
        | `Text -> print_string (Telemetry.render_text snap)
        | `Json -> print_endline (Telemetry.render_json snap))
      f

let emit ~format ~out_dir ~name fig =
  match format with
  | `Ascii -> Gnrflash_plot.Ascii.print fig
  | `Svg ->
    if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
    let path = Filename.concat out_dir (name ^ ".svg") in
    Gnrflash_plot.Svg.save ~path fig;
    Printf.printf "wrote %s\n" path
  | `Csv ->
    if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
    let path = Filename.concat out_dir (name ^ ".csv") in
    Gnrflash_plot.Csv.save_figure ~path fig;
    Printf.printf "wrote %s\n" path

(* ---- fig command ---- *)

let fig_ids =
  [ "2"; "4"; "5"; "6"; "7"; "8"; "9"; "models"; "qcap"; "idvg"; "all" ]

let fig_cmd =
  let id_arg =
    let doc =
      "Figure to regenerate: a paper figure (2, 4, 5, 6, 7, 8, 9), an \
       extension figure (models, qcap, idvg), or all."
    in
    Arg.(value & pos 0 (enum (List.map (fun s -> (s, s)) fig_ids)) "all"
         & info [] ~docv:"FIGURE" ~doc)
  in
  let extension_figures () =
    [
      ("ext_models", Gnrflash.Extensions.model_figure ());
      ("ext_qcap", Gnrflash.Extensions.qcap_jv_figure ());
      ("ext_idvg", Gnrflash.Extensions.id_vg_figure ());
    ]
  in
  let run id format out_dir stats jobs =
    with_jobs jobs @@ fun () ->
    with_stats stats @@ fun () ->
    let wanted =
      match id with
      | "all" -> Gnrflash.Figures.all () @ extension_figures ()
      | "models" | "qcap" | "idvg" ->
        List.filter (fun (n, _) -> n = "ext_" ^ id) (extension_figures ())
      | id -> List.filter (fun (n, _) -> n = "fig" ^ id) (Gnrflash.Figures.all ())
    in
    List.iter (fun (name, fig) -> emit ~format ~out_dir ~name fig) wanted
  in
  let doc = "Regenerate a paper or extension figure." in
  Cmd.v (Cmd.info "fig" ~doc)
    Term.(const run $ id_arg $ format_arg $ out_dir_arg $ stats_arg $ jobs_arg)

(* ---- check command ---- *)

let check_cmd =
  let run stats jobs budget_ms =
    with_jobs jobs @@ fun () ->
    with_stats stats @@ fun () ->
    with_budget budget_ms @@ fun () ->
    let checks = Gnrflash.Report.all_checks () in
    print_string (Gnrflash.Report.render checks);
    if List.exists (fun c -> not c.Gnrflash.Report.passed) checks then exit 1
  in
  let doc = "Run the paper-shape validation checks." in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(const run $ stats_arg $ jobs_arg $ budget_ms_arg)

(* ---- transient command ---- *)

let transient_cmd =
  let vgs_arg =
    Arg.(value & opt float 15. & info [ "vgs" ] ~doc:"Control-gate bias [V].")
  in
  let duration_arg =
    Arg.(value & opt float 10. & info [ "duration" ] ~doc:"Integration horizon [s].")
  in
  let run vgs duration stats jobs budget_ms =
    with_jobs jobs @@ fun () ->
    with_stats stats @@ fun () ->
    with_budget budget_ms @@ fun () ->
    let t = Gnrflash.Params.device () in
    match Gnrflash_device.Transient.run t ~vgs ~duration with
    | Error e ->
      prerr_endline ("transient failed: " ^ Resilience.Solver_error.to_string e);
      (match e.Resilience.Solver_error.kind with
       | Resilience.Solver_error.Budget_exhausted _ -> exit 3
       | _ -> exit 1)
    | Ok r ->
      Printf.printf "%-12s %-12s %-10s %-12s %-12s\n" "time[s]" "QFG[C]" "VFG[V]"
        "Jin[A/cm2]" "Jout[A/cm2]";
      let samples = r.Gnrflash_device.Transient.samples in
      let n = Array.length samples in
      let stride = max 1 (n / 24) in
      Array.iteri
        (fun i s ->
           if i mod stride = 0 || i = n - 1 then
             Printf.printf "%-12.4e %-12.4e %-10.4f %-12.4e %-12.4e\n"
               s.Gnrflash_device.Transient.time s.Gnrflash_device.Transient.qfg
               s.Gnrflash_device.Transient.vfg
               (s.Gnrflash_device.Transient.j_in /. 1e4)
               (s.Gnrflash_device.Transient.j_out /. 1e4))
        samples;
      (match r.Gnrflash_device.Transient.tsat with
       | Some t -> Printf.printf "tsat = %.4e s\n" t
       | None -> print_endline "no saturation within horizon");
      Printf.printf "final dVT = %.3f V\n" r.Gnrflash_device.Transient.dvt_final;
      (* independent fixed-point cross-check of the ODE endpoint (Jin = Jout
         solved by Brent's method, no integration) *)
      (match Gnrflash_device.Transient.saturation_charge t ~vgs with
       | Ok q_star ->
         Printf.printf "fixed-point QFG (Jin = Jout) = %.4e C\n" q_star
       | Error e ->
         Printf.printf "fixed-point solve failed: %s\n"
           (Resilience.Solver_error.to_string e))
  in
  let doc = "Integrate one program/erase transient and print the trajectory." in
  Cmd.v (Cmd.info "transient" ~doc)
    Term.(const run $ vgs_arg $ duration_arg $ stats_arg $ jobs_arg
          $ budget_ms_arg)

(* ---- retention command ---- *)

let retention_cmd =
  let dvt_arg =
    Arg.(value & opt float 2.0 & info [ "dvt" ] ~doc:"Programmed threshold shift [V].")
  in
  let run dvt format out_dir =
    let fig, loss = Gnrflash.Extensions.retention_curve ~dvt0:dvt () in
    emit ~format ~out_dir ~name:"ext_retention" fig;
    Printf.printf "10-year charge loss: %.3f %%\n" loss
  in
  let doc = "Retention (charge loss vs log time) experiment." in
  Cmd.v (Cmd.info "retention" ~doc)
    Term.(const run $ dvt_arg $ format_arg $ out_dir_arg)

(* ---- the certified pulse surrogate opt-out ---- *)

let no_surrogate_arg =
  let doc =
    "Disable the certified pulse surrogate and force every pulse through \
     the exact ODE solve. By default in-box pulses are served from \
     tabulated trajectories within each table's certified divergence \
     bound (see the surrogate/* telemetry counters under --stats)."
  in
  Arg.(value & flag & info [ "no-surrogate" ] ~doc)

(* ---- endurance command ---- *)

let endurance_cmd =
  let cycles_arg =
    Arg.(value & opt int 10_000 & info [ "cycles" ] ~doc:"P/E cycle budget.")
  in
  let ensemble_arg =
    let doc =
      "Cycle $(docv) variation-perturbed cells (instead of the single-cell \
       curve) and report the survival distribution; honors --jobs."
    in
    Arg.(value & opt int 1 & info [ "ensemble" ] ~docv:"N" ~doc)
  in
  let run cycles ensemble format out_dir no_surrogate stats jobs =
    with_jobs jobs @@ fun () ->
    with_stats stats @@ fun () ->
    let surrogate = not no_surrogate in
    if ensemble < 1 then begin
      prerr_endline "gnrflash: --ensemble must be >= 1";
      exit 2
    end;
    if ensemble = 1 then begin
      (* single-cell cycling is inherently serial; --jobs has nothing to
         fan out *)
      let fig, survived =
        Gnrflash.Extensions.endurance_curve ~cycles ~surrogate ()
      in
      emit ~format ~out_dir ~name:"ext_endurance" fig;
      Printf.printf "cycles survived: %d / %d\n" survived cycles
    end
    else begin
      let s =
        Gnrflash.Extensions.endurance_ensemble ~cells:ensemble ~cycles
          ~surrogate ~jobs ()
      in
      Printf.printf "endurance ensemble of %d cells (budget %d cycles):\n"
        s.Gnrflash.Extensions.cells cycles;
      Printf.printf "  survived full budget  %d / %d\n"
        s.Gnrflash.Extensions.survived_all s.Gnrflash.Extensions.cells;
      Printf.printf "  cycles min/median/max %d / %d / %d\n"
        s.Gnrflash.Extensions.cycles_min s.Gnrflash.Extensions.cycles_median
        s.Gnrflash.Extensions.cycles_max
    end
  in
  let doc = "Endurance cycling experiment." in
  Cmd.v (Cmd.info "endurance" ~doc)
    Term.(const run $ cycles_arg $ ensemble_arg $ format_arg $ out_dir_arg
          $ no_surrogate_arg $ stats_arg $ jobs_arg)

(* ---- pulse command ---- *)

let pulse_cmd =
  let vgs_arg =
    Arg.(value & opt float 15. & info [ "vgs" ] ~doc:"Pulse bias [V].")
  in
  let width_arg =
    Arg.(value & opt float 100e-6 & info [ "width" ] ~doc:"Pulse width [s].")
  in
  let count_arg =
    Arg.(value & opt int 1 & info [ "count"; "n" ] ~doc:"Number of pulses.")
  in
  let qfg0_arg =
    Arg.(value & opt float 0. & info [ "qfg0" ] ~doc:"Initial stored charge [C].")
  in
  let run vgs width count qfg0 no_surrogate stats budget_ms =
    if count < 1 then begin
      prerr_endline "gnrflash: --count must be >= 1";
      exit 2
    end;
    with_stats stats @@ fun () ->
    with_budget budget_ms @@ fun () ->
    let surrogate = not no_surrogate in
    let engine =
      Gnrflash_device.Program_erase.engine ~surrogate (Gnrflash.Params.device ())
    in
    let pulse = { Gnrflash_device.Program_erase.vgs; duration = width } in
    let q = ref qfg0 in
    let last = ref None in
    let t0 = Unix.gettimeofday () in
    (try
       for _ = 1 to count do
         match Gnrflash_device.Program_erase.apply_pulse engine ~qfg:!q pulse with
         | Error e ->
           prerr_endline ("pulse failed: " ^ Resilience.Solver_error.to_string e);
           (match e.Resilience.Solver_error.kind with
            | Resilience.Solver_error.Budget_exhausted _ -> exit 3
            | _ -> exit 1)
         | Ok o ->
           q := o.Gnrflash_device.Program_erase.qfg_after;
           last := Some o
       done
     with Resilience.Solver_error.Solver_failure e ->
       prerr_endline ("pulse failed: " ^ Resilience.Solver_error.to_string e);
       exit 3);
    let elapsed = Unix.gettimeofday () -. t0 in
    (match !last with
     | None -> ()
     | Some o ->
       Printf.printf "after %d pulse(s) at %+.2f V x %.3e s (%s):\n" count vgs
         width
         (if surrogate then "surrogate on" else "exact solver");
       Printf.printf "  QFG  = %.6e C\n" o.Gnrflash_device.Program_erase.qfg_after;
       Printf.printf "  dVT  = %.4f V\n" o.Gnrflash_device.Program_erase.dvt_after;
       Printf.printf "  saturated (last pulse) = %b\n"
         o.Gnrflash_device.Program_erase.saturated);
    Printf.printf "  %.3e s total, %.3e s/pulse\n" elapsed
      (elapsed /. float_of_int count)
  in
  let doc =
    "Apply a train of identical bias pulses to the paper device and report \
     the final state and the per-pulse cost (surrogate-served by default; \
     compare against --no-surrogate)."
  in
  Cmd.v (Cmd.info "pulse" ~doc)
    Term.(const run $ vgs_arg $ width_arg $ count_arg $ qfg0_arg
          $ no_surrogate_arg $ stats_arg $ budget_ms_arg)

(* ---- models command (Ext A) ---- *)

let models_cmd =
  let run format out_dir =
    emit ~format ~out_dir ~name:"ext_models" (Gnrflash.Extensions.model_figure ());
    let rows = Gnrflash.Extensions.model_comparison () in
    Printf.printf "%-24s %-14s %-14s\n" "model" "J@10MV/cm" "J@15MV/cm";
    List.iter
      (fun (name, pts) ->
         let at target =
           Array.fold_left
             (fun acc (e, j) -> if abs_float (e -. target) < 0.51 then j else acc)
             nan pts
         in
         Printf.printf "%-24s %-14.4e %-14.4e\n" name (at 10.) (at 15.))
      rows
  in
  let doc = "Compare FN closed form with WKB/TMM/Airy Tsu-Esaki models (Ext A)." in
  Cmd.v (Cmd.info "models" ~doc) Term.(const run $ format_arg $ out_dir_arg)

(* ---- optimize command (Ext B) ---- *)

let optimize_cmd =
  let run () =
    let best, points = Gnrflash.Extensions.optimize_design () in
    Printf.printf "%-6s %-8s %-14s %-14s %-12s %s\n" "GCR" "XTO[nm]" "t_prog[s]"
      "E_peak[MV/cm]" "endurance" "feasible";
    List.iter
      (fun (p : Gnrflash.Extensions.design_point) ->
         Printf.printf "%-6.2f %-8.1f %-14.4e %-14.2f %-12.3e %b\n"
           p.Gnrflash.Extensions.gcr p.Gnrflash.Extensions.xto_nm
           p.Gnrflash.Extensions.program_time
           (p.Gnrflash.Extensions.peak_field /. 1e8)
           p.Gnrflash.Extensions.endurance p.Gnrflash.Extensions.feasible)
      points;
    Printf.printf
      "\nbest: GCR=%.2f XTO=%.1fnm t_prog=%.3e s E=%.1f MV/cm endurance=%.2e\n"
      best.Gnrflash.Extensions.gcr best.Gnrflash.Extensions.xto_nm
      best.Gnrflash.Extensions.program_time
      (best.Gnrflash.Extensions.peak_field /. 1e8)
      best.Gnrflash.Extensions.endurance
  in
  let doc = "Design-space optimization over (GCR, XTO) (Ext B)." in
  Cmd.v (Cmd.info "optimize" ~doc) Term.(const run $ const ())

(* ---- variation command ---- *)

let variation_cmd =
  let n_arg = Arg.(value & opt int 200 & info [ "n" ] ~doc:"Ensemble size.") in
  let seed_arg = Arg.(value & opt int 2014 & info [ "seed" ] ~doc:"PRNG seed.") in
  let run n seed jobs budget_ms =
    with_jobs jobs @@ fun () ->
    with_budget budget_ms @@ fun () ->
    let module V = Gnrflash_device.Variation in
    let base = Gnrflash.Params.device () in
    let samples = V.sample_devices ~seed ~jobs ~base ~n () in
    let s =
      match V.summarize samples with
      | Ok s -> s
      | Error msg -> prerr_endline msg; exit 1
    in
    Printf.printf "ensemble of %d devices around the paper point:\n" s.V.n;
    if s.V.n_failed > 0 then begin
      Printf.printf "  failed solves   %d (excluded from statistics)\n" s.V.n_failed;
      List.iter
        (fun (cls, count) -> Printf.printf "    %-18s %d\n" cls count)
        s.V.failed_by_class
    end;
    Printf.printf "  t_prog median  %.3e s\n" s.V.t_prog_median;
    Printf.printf "  t_prog p95     %.3e s\n" s.V.t_prog_p95;
    Printf.printf "  p95/p5 spread  %.1fx\n" s.V.t_prog_spread;
    Printf.printf "  dVT sigma      %.3f V (fixed 100 ns pulse)\n" s.V.dvt_sigma;
    Printf.printf "  XTO sensitivity %.2f decades/nm\n" (V.sensitivity_xto base)
  in
  let doc = "Monte-Carlo process-variation analysis." in
  Cmd.v (Cmd.info "variation" ~doc)
    Term.(const run $ n_arg $ seed_arg $ jobs_arg $ budget_ms_arg)

(* ---- ftl command ---- *)

let ftl_cmd =
  let ops_arg = Arg.(value & opt int 20000 & info [ "ops" ] ~doc:"Write operations.") in
  let run ops =
    let module F = Gnrflash_memory.Ftl in
    let module W = Gnrflash_memory.Workload in
    Printf.printf "%-12s %-8s %-8s %-8s %s\n" "workload" "WA" "gc" "erases" "wear spread";
    List.iter
      (fun (name, pattern) ->
         let ftl = F.create F.default_config in
         let trace =
           W.generate ~seed:2014 pattern ~pages:(F.logical_capacity ftl) ~strings:1
             ~ops ~read_fraction:0.
         in
         match F.run_trace ftl trace with
         | Error e -> Printf.printf "%-12s failed: %s\n" name (F.error_to_string e)
         | Ok () ->
           let s = F.stats ftl in
           Printf.printf "%-12s %-8.3f %-8d %-8d %.0f\n" name s.F.write_amplification
             s.F.gc_runs s.F.erases (F.wear_spread ftl))
      [
        ("sequential", W.Sequential);
        ("uniform", W.Uniform);
        ("zipf-0.9", W.Zipf 0.9);
        ("zipf-1.3", W.Zipf 1.3);
      ]
  in
  let doc = "Flash-translation-layer workload study." in
  Cmd.v (Cmd.info "ftl" ~doc) Term.(const run $ ops_arg)

(* ---- serve command ---- *)

let serve_cmd =
  let ops_arg =
    Arg.(value & opt int 20000
         & info [ "ops" ] ~doc:"Total host commands across the fleet.")
  in
  let instances_arg =
    Arg.(value & opt int 8
         & info [ "instances" ] ~doc:"Independent service instances.")
  in
  let seed_arg =
    Arg.(value & opt int 2014 & info [ "seed" ] ~doc:"PRNG seed.")
  in
  let poll_arg =
    Arg.(value & opt float 0.
         & info [ "poll" ]
             ~doc:"DQ6 status-poll interval in model seconds; 0 uses \
                   RY/BY#-style waits.")
  in
  let run ops instances seed poll jobs =
    with_jobs jobs @@ fun () ->
    if ops < 1 || instances < 1 then begin
      prerr_endline "gnrflash: --ops and --instances must be >= 1";
      exit 2
    end;
    let module S = Gnrflash_memory.Service in
    let module W = Gnrflash_memory.Workload in
    let per_instance = max 1 (ops / instances) in
    let config = { S.default_config with S.poll_interval = poll } in
    let t0 = Unix.gettimeofday () in
    let results =
      Gnrflash.Sweep.init instances (fun i ->
          let seed_i = Gnrflash.Sweep.splitmix ~seed ~index:i in
          let s = S.create ~config (Gnrflash.Params.device ()) in
          S.run_trace ~seed:seed_i ~ops:per_instance s)
    in
    let wall = Unix.gettimeofday () -. t0 in
    let sum f = Array.fold_left (fun acc r -> acc + f r) 0 results in
    let total_ops = sum (fun r -> r.S.ops) in
    let lost = sum (fun r -> r.S.lost_ops) in
    let mismatches =
      sum (fun r -> r.S.read_mismatches + r.S.verify_mismatches)
    in
    let bad_seq = sum (fun r -> r.S.fsm.Gnrflash_memory.Command_fsm.bad_sequences) in
    let invariant_failures =
      Array.fold_left
        (fun acc r ->
           match r.S.invariant_error with
           | None -> acc
           | Some e -> (e :: acc))
        [] results
    in
    let digest f =
      Array.fold_left (fun acc r -> W.digest_fold acc (f r)) W.digest_empty
        results
    in
    let lat = S.latency_summary (Array.map (fun r -> r.S.latency) results) in
    let model_time =
      Array.fold_left (fun acc r -> acc +. r.S.model_time) 0. results
    in
    Printf.printf "fleet of %d service instances, %d host commands each:\n"
      instances per_instance;
    Printf.printf "  ops submitted    %d\n" total_ops;
    Printf.printf "  reads            %d (%d mapped)\n"
      (sum (fun r -> r.S.reads)) (sum (fun r -> r.S.read_hits));
    Printf.printf "  writes           %d (+%d rejected Device_full)\n"
      (sum (fun r -> r.S.writes)) (sum (fun r -> r.S.rejected_full));
    Printf.printf "  trims            %d\n" (sum (fun r -> r.S.trims));
    Printf.printf "  lost ops         %d\n" lost;
    Printf.printf "  data mismatches  %d\n" mismatches;
    Printf.printf "  protocol errors  %d\n" bad_seq;
    Printf.printf "  model time       %.4e s (sum over fleet)\n" model_time;
    Printf.printf "  latency p50/p95/p99  %.3e / %.3e / %.3e s (model)\n"
      lat.S.p50 lat.S.p95 lat.S.p99;
    Printf.printf "  wall clock       %.2f s (%.0f ops/s)\n" wall
      (float_of_int total_ops /. Float.max wall 1e-9);
    Printf.printf "  trace digest     0x%016X\n"
      (digest (fun r -> r.S.trace_digest));
    Printf.printf "  state digest     0x%016X\n"
      (digest (fun r -> r.S.state_digest));
    List.iter
      (fun e -> Printf.printf "  INVARIANT VIOLATION: %s\n" e)
      invariant_failures;
    if lost > 0 || mismatches > 0 || bad_seq > 0 || invariant_failures <> []
    then begin
      prerr_endline "gnrflash serve: accounting or integrity gate FAILED";
      exit 1
    end
  in
  let doc =
    "Command-level NOR memory service: run host traffic through the FTL \
     and a behavioral JEDEC command-set device."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ ops_arg $ instances_arg $ seed_arg $ poll_arg
          $ jobs_arg)

(* ---- energy command ---- *)

let energy_cmd =
  let cells_arg = Arg.(value & opt int 4096 & info [ "cells" ] ~doc:"Page size in cells.") in
  let run cells =
    let rows = Gnrflash_memory.Energy.page_program_comparison ~cells in
    Printf.printf "page of %d cells:\n" cells;
    List.iter (fun (k, v) -> Printf.printf "  %-22s %.4e\n" k v) rows
  in
  let doc = "FN vs channel-hot-electron page-programming energy." in
  Cmd.v (Cmd.info "energy" ~doc) Term.(const run $ cells_arg)

(* ---- ber command ---- *)

let ber_cmd =
  let sigma_arg =
    Arg.(value & opt (some float) None
         & info [ "sigma" ] ~doc:"Threshold placement spread [V]; omit for a sweep.")
  in
  let run sigma =
    let module B = Gnrflash_memory.Ber in
    let show (a : B.analysis) =
      Printf.printf "  sigma=%.3f V: raw BER=%.3e  codeword-fail=%.3e  page-fail=%.3e %s\n"
        a.B.sigma_dvt a.B.raw_ber a.B.codeword_failure a.B.page_failure
        (if a.B.acceptable then "OK" else "FAIL")
    in
    (match sigma with
     | Some s -> show (B.analyze ~sigma_dvt:s ())
     | None -> List.iter show (Gnrflash.Extensions.mlc_error_budget ()));
    Printf.printf "max tolerable sigma for 1e-12 page failure: %.3f V\n"
      (B.max_tolerable_sigma ())
  in
  let doc = "MLC bit-error-rate and ECC budget analysis." in
  Cmd.v (Cmd.info "ber" ~doc) Term.(const run $ sigma_arg)

(* ---- ablations command ---- *)

let hr title =
  Printf.printf "\n=== %s %s\n" title (String.make (max 0 (66 - String.length title)) '=')

(* Ablations of design choices called out in DESIGN.md, and the
   extensions no other subcommand prints. *)
let ablations_cmd =
  let run () =
    hr "Ext E: quantum-capacitance correction";
    List.iter
      (fun (n, g0, g_eff) ->
         Printf.printf "  %d-layer FG: geometric GCR %.3f -> effective %.3f\n" n g0 g_eff)
      (Gnrflash.Extensions.qcap_comparison ~layers:[ 1; 2; 3; 5; 10 ]);
    hr "Ext F: NAND page program";
    (match Gnrflash.Extensions.nand_page_demo () with
     | Error e -> Printf.printf "  FAILED: %s\n" e
     | Ok s ->
       Printf.printf "  pages=%d verify_failures=%d max_disturb_dVT=%.4f V mean_pulses=%.1f\n"
         s.Gnrflash.Extensions.pages_written s.Gnrflash.Extensions.verify_failures
         s.Gnrflash.Extensions.disturb_dvt_max s.Gnrflash.Extensions.mean_pulses);
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
    hr "Ext K: retention after cycling (SILC)";
    List.iter
      (fun (cycles, traps, mult) ->
         Printf.printf "  %6d cycles: N_t=%9.2e /m^2  leakage x%.3f\n" cycles traps mult)
      (Gnrflash.Extensions.retention_after_cycling ());
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
    Printf.printf "  extracted Ea = %.3f eV (model: 0.300 eV)\n" ea
  in
  let doc =
    "Design-choice ablations (image force, divider vs Poisson, SILC, TMM \
     convergence, square vs ramped pulse, dynamic quantum capacitance) and \
     Ext E, F, K and M."
  in
  Cmd.v (Cmd.info "ablations" ~doc) Term.(const run $ const ())

let main =
  let doc = "MLGNR-CNT floating-gate flash memory model (SOCC 2014 reproduction)" in
  Cmd.group (Cmd.info "gnrflash" ~version:"1.0.0" ~doc)
    [ fig_cmd; check_cmd; transient_cmd; pulse_cmd; retention_cmd;
      endurance_cmd; models_cmd; optimize_cmd; variation_cmd; ftl_cmd;
      serve_cmd; energy_cmd; ber_cmd; ablations_cmd ]

let () = exit (Cmd.eval main)
