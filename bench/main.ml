(* Timing rows and the gates no other harness runs.

   Running this executable:
   1. runs the named workloads (the paper figures and one call of each
      extension, Ext A-F) once with telemetry on and gates the solver
      work they count against two eval budgets;
   2. times the certified pulse surrogate against cold exact solves (the
      100x per-pulse gate);
   3. times the sweep engine serial vs on the domain pool (the scale-out
      gate);
   4. times every workload, the per-layer kernels and a served service
      instance with Bechamel, before part 3 spawns the pool, and gates
      the service row on an ops/s floor and the FSM's kept word readout
      on its speed over a cell sense;
   and writes the rows and gate results to BENCH_telemetry.json.
   [--quick] (the `dune runtest` smoke) runs parts 1 and 2 only.

   The figures, checks, extensions and ablations print from
   `gnrflash_cli` (fig, check, models, optimize, retention, endurance,
   energy, ftl, ber, variation, ablations); per-layer counts come from
   perfbench's [--trace 1] ledger. *)

open Bechamel
open Bechamel.Toolkit
module Tel = Gnrflash_telemetry.Telemetry
module Sweep = Gnrflash.Sweep

let hr title =
  Printf.printf "\n=== %s %s\n" title (String.make (max 0 (66 - String.length title)) '=')

(* ---------- part 1: named workloads and their eval budgets ---------- *)

(* The paper figures and one call of each extension. The budget pass runs
   each once with telemetry on, and each is a Bechamel row, so a budget
   counts the work of the very workloads the rows time. *)
let workloads =
  let module Fig = Gnrflash.Figures in
  let module X = Gnrflash.Extensions in
  [
    ("fig2-band-diagram", fun () -> ignore (Fig.fig2_band_diagram ()));
    ("fig4-initial-currents", fun () -> ignore (Fig.fig4_initial_currents ()));
    ("fig5-transient", fun () -> ignore (Fig.fig5_transient ()));
    ("fig6-program-gcr", fun () -> ignore (Fig.fig6_program_gcr ()));
    ("fig7-program-xto", fun () -> ignore (Fig.fig7_program_xto ()));
    ("fig8-erase-gcr", fun () -> ignore (Fig.fig8_erase_gcr ()));
    ("fig9-erase-xto", fun () -> ignore (Fig.fig9_erase_xto ()));
    ( "ext-a-model-ablation",
      fun () -> ignore (X.model_comparison ~fields_mv_cm:[| 10.; 14. |] ()) );
    ("ext-b-design-point", fun () -> ignore (X.evaluate_design ~gcr:0.6 ~xto_nm:5.));
    ("ext-c-retention", fun () -> ignore (X.retention_curve ()));
    ("ext-d-endurance-100", fun () -> ignore (X.endurance_curve ~cycles:100 ()));
    ("ext-e-qcap", fun () -> ignore (X.qcap_comparison ~layers:[ 1; 5 ]));
    ("ext-f-nand-page", fun () -> ignore (X.nand_page_demo ~pages:1 ~strings:4 ()));
  ]

(* Counter-budget regression gate. Counts are deterministic: each budget
   is twice the count its workloads measured, so a change that doubles
   the solver work fails the run. [seed_baseline] is the count the seed
   measured on the larger workloads the bench printed then (every figure,
   the full Ext A, B and D), kept as history.

     - pulse_rhs_evals: ODE right-hand-side evaluations inside
       [Program_erase.apply_pulse] (exact solves and surrogate builds).
     - tsu_esaki_quad_fn_evals: quadrature integrand evaluations inside
       [Tsu_esaki.current_density] (Ext A's WKB model).

   Measured 5,383 and 672, the same on every run. *)
let pulse_rhs_budget = 10_766
let tsu_esaki_quad_budget = 1_344

type perf_row = {
  metric : string;
  measured : int;
  budget : int;
  seed_baseline : int;
}

type perf = {
  rows : perf_row list;
  pulse_exact_solves : int;  (* exact-path solves under program_erase/pulse *)
  pulse_builds : int;        (* surrogate builds under program_erase/pulse *)
}

let contains_sub ~sub s =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  lb = 0 || go 0

let budget_pass () =
  Tel.reset ();
  Tel.enable ();
  List.iter (fun (_, run) -> run ()) workloads;
  let snap = Tel.snapshot () in
  Tel.disable ();
  let total ~sub ~suffix =
    List.fold_left
      (fun acc (name, v) ->
         if String.ends_with ~suffix name && contains_sub ~sub name then acc + v
         else acc)
      0 snap.Tel.counters
  in
  {
    rows =
      [
        {
          metric = "pulse_rhs_evals";
          measured = total ~sub:"program_erase/pulse/" ~suffix:"ode/rhs_eval";
          budget = pulse_rhs_budget;
          seed_baseline = 3_292_338;
        };
        {
          metric = "tsu_esaki_quad_fn_evals";
          measured = total ~sub:"tsu_esaki/current_density" ~suffix:"quad/fn_eval";
          budget = tsu_esaki_quad_budget;
          seed_baseline = 223_396;
        };
      ];
    pulse_exact_solves =
      total ~sub:"" ~suffix:"program_erase/pulse/transient/run/transient/solve";
    pulse_builds = total ~sub:"program_erase/pulse/" ~suffix:"surrogate/build";
  }

let row_ok r = r.measured > 0 && r.measured <= r.budget

let perf_ok p =
  List.for_all row_ok p.rows && p.pulse_exact_solves > 0 && p.pulse_builds > 0

let print_perf p =
  hr "Perf: eval budgets on the named workloads";
  List.iter
    (fun r ->
       Printf.printf "  %-26s %9d evals  budget %9d  seed %9d  %s\n" r.metric
         r.measured r.budget r.seed_baseline
         (if row_ok r then "ok" else if r.measured = 0 then "NOT EXERCISED"
          else "OVER BUDGET"))
    p.rows;
  Printf.printf "  under program_erase/pulse: %d exact solve(s), %d surrogate build(s)  %s\n"
    p.pulse_exact_solves p.pulse_builds
    (if p.pulse_exact_solves > 0 && p.pulse_builds > 0 then "ok" else "NOT EXERCISED")

(* ---------- part 2: surrogate per-pulse speed gate ---------- *)

module Ps = Gnrflash_device.Pulse_surrogate
module Dpe = Gnrflash_device.Program_erase

let surrogate_speedup_gate = 100.

(* Each side of the speed-up is the fastest of this many rounds, exact and
   surrogate alternating: one round is a few ms of wall clock, so a single
   one let host load (or the suites running beside the smoke) set the
   verdict. *)
let surrogate_rounds = 5

type surrogate_speed = {
  exact_s : float;      (* per-pulse wall clock, exact ODE path *)
  surrogate_s : float;  (* per-pulse wall clock, surrogate-served *)
  rounds : (float * float) list;  (* every round's (exact, surrogate) *)
}

let speedup s = s.exact_s /. s.surrogate_s

(* Telemetry off (production config, like the Bechamel rows): cold exact
   solves against table-served [apply_pulse] calls over the 15 V table's
   charge range. *)
let surrogate_speed () =
  let t = Gnrflash_device.Fgt.paper_default in
  let lo, hi =
    match Ps.build t ~vgs:15. with
    | Ok tab -> Ps.qfg_range tab
    | Error e ->
      Printf.eprintf "bench: surrogate build failed: %s\n"
        (Gnrflash_resilience.Solver_error.to_string e);
      exit 1
  in
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
  let rounds =
    List.init surrogate_rounds (fun _ ->
        let x = exact_round () in
        (x, surrogate_round ()))
  in
  let fastest side = List.fold_left (fun acc r -> Float.min acc (side r)) infinity rounds in
  { exact_s = fastest fst; surrogate_s = fastest snd; rounds }

let surrogate_ok s = speedup s >= surrogate_speedup_gate

let print_surrogate s =
  hr "Perf: certified pulse surrogate speed";
  Printf.printf
    "  per pulse: exact %.3e s, surrogate %.3e s  (%.0fx, gate %.0fx)  %s\n"
    s.exact_s s.surrogate_s (speedup s) surrogate_speedup_gate
    (if surrogate_ok s then "ok" else "TOO SLOW");
  Printf.printf "  rounds (exact/surrogate s, fastest of each side counts):%s\n"
    (String.concat ""
       (List.map (fun (x, p) -> Printf.sprintf " %.2e/%.2e" x p) s.rounds))

(* ---------- part 3: sweep-engine scaling ---------- *)

type scaling_row = {
  serial_s : float;    (* fastest of [scaling_rounds] serial runs *)
  parallel_s : float;  (* fastest of [scaling_rounds] parallel runs *)
  identical : bool;
  pool_rounds : int;   (* parallel rounds whose sweep ran the domain pool *)
}

type scaling = {
  cores : int;
  pool_jobs : int;
  host_parallelism : float; (* see [host_parallelism] *)
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

(* A CPU-bound spin: integer mixing with no allocation. *)
let spin () =
  let h = ref 0 in
  for i = 1 to 20_000_000 do
    h := Sweep.splitmix ~seed:!h ~index:i
  done;
  ignore (Sys.opaque_identity !h)

(* The parallelism the host gives this process right now: twice the wall
   time of one spin over that of two spins run at once on two domains,
   each side the fastest of [scaling_rounds] alternating rounds. About 2
   when two cores are free, about 1 when only one is (a loaded host), so
   a pool speed-up near 1x reads as a busy host, not a pool that stopped
   scaling, when this reads near 1 too. *)
let host_parallelism () =
  let one = ref infinity and two = ref infinity in
  for _ = 1 to scaling_rounds do
    one := Float.min !one (snd (time_wall spin));
    let (), t =
      time_wall (fun () ->
          let d = Domain.spawn spin in
          spin ();
          Domain.join d)
    in
    two := Float.min !two t
  done;
  2. *. !one /. !two

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
  let host_parallelism = host_parallelism () in
  Printf.printf
    "  host parallelism %.2fx (two concurrent spins against one; ~1 means a loaded host)\n"
    host_parallelism;
  { cores; pool_jobs; host_parallelism; grid; monte_carlo; pool_spawned; mc_flushes }

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

(* ---------- part 4: bechamel timing ---------- *)

let stage f = Staged.stage f

let workload_tests =
  List.map (fun (name, run) -> Test.make ~name (stage run)) workloads

let kernel_tests =
  let fn = Gnrflash.Params.fn () in
  let phi = 3.2 *. Gnrflash_physics.Constants.ev in
  let m = 0.42 *. Gnrflash_physics.Constants.m0 in
  let barrier = Gnrflash_quantum.Barrier.triangular ~phi_b:phi ~field:1.2e9 ~m_eff:m in
  (* a fixed sweep of 64 fields over the paper's 8-16 MV/cm, so a run
     spans far more than the clock's resolution *)
  let fields = Array.init 64 (fun k -> 0.8e9 +. (float_of_int k *. 0.8e9 /. 63.)) in
  [
    Test.make ~name:"kernel-fn-closed-form-64"
      (stage (fun () ->
           for k = 0 to Array.length fields - 1 do
             ignore (Gnrflash_quantum.Fn.current_density fn ~field:fields.(k))
           done));
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

(* A warm store's settled P/E cycles alone: one cell at Ext D's
   +-15 V / 100 us pulses, cycled until its charges form a two-cycle, then
   [settled_cycles] cycles a run on the settled loop of
   [Cell_store.run_cycles]. Its Q_BD is infinite and no window closes it,
   so every run replays the same two transitions: the row over
   [settled_cycles] is one settled cycle's cost. *)
let settled_cycles = 1_000

let settled_cycles_test () =
  let module S = Gnrflash_memory.Cell_store in
  let module D = Gnrflash_device in
  let pulse vgs = { D.Program_erase.vgs; duration = 100e-6 } in
  let reliability = { D.Reliability.default with D.Reliability.qbd0 = infinity } in
  let s = S.create ~n:1 (Gnrflash.Params.device ()) in
  let pmemo = S.memo s and ememo = S.memo s in
  let out = S.pe_readout () in
  let run cycles =
    ignore
      (S.run_cycles s ~reliability ~pmemo ~ememo ~program:(pulse 15.)
         ~erase:(pulse (-15.)) ~window_min:neg_infinity ~cycles 0 out
        : int)
  in
  (* Ext D's cell settles within its first 100 cycles *)
  run settled_cycles;
  Test.make ~name:"kernel-settled-cycles-1000" (stage (fun () -> run settled_cycles))

(* A served-size device ([Command_fsm.default_config]: 256 words of 13
   bits), every word programmed to varied data. A run reads each word
   once: [fsm-read-word] through the bus, whose data answer is the
   device's kept per-word readout, and [fsm-sense-word] through the
   cells, the readout's oracle. The read row must be at least
   [fsm_read_gate] times faster: the kept readout pays for itself. *)
let fsm_read_gate = 2.

let fsm_read_tests () =
  let module C = Gnrflash_memory.Command_fsm in
  let t = C.create (Gnrflash.Params.device ()) in
  let n = C.words t in
  let w ~addr ~data =
    match C.write t ~addr ~data with
    | Ok () -> ()
    | Error e -> failwith (C.error_to_string e)
  in
  let u1 = 0x555 mod n and u2 = 0x2AA mod n in
  let mask = (1 lsl C.default_config.C.word_bits) - 1 in
  for addr = 0 to n - 1 do
    w ~addr:u1 ~data:0xAA;
    w ~addr:u2 ~data:0x55;
    w ~addr:u1 ~data:0xA0;
    w ~addr ~data:(Sweep.splitmix ~seed:2014 ~index:addr land mask);
    C.wait_ready t
  done;
  [
    Test.make ~name:"fsm-read-word"
      (stage (fun () ->
           for addr = 0 to n - 1 do
             ignore (C.read_word t ~addr : int)
           done));
    Test.make ~name:"fsm-sense-word"
      (stage (fun () ->
           for addr = 0 to n - 1 do
             ignore (C.sense_word t ~addr : int)
           done));
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
      let base = slot k + (w * bits) in
      S.program_word s ~memo:pm ~pulse:PE.default_program_pulse ~max_pulses:8 ~base
        ~bits ~sensed:(S.sense s ~base ~bits) ~data:data.(draw + w) out
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

(* The FTL layer of the served write path: 1,000 uniform rewrites of a
   warm, full default-geometry FTL per run, the journal cleared after each
   write as [Service] does once it has mirrored it. The endurance limit is
   lifted so the row's millions of writes never retire a block (a served
   instance's writes stay far below the default limit); the state runs on
   from run to run, in its GC steady state. *)
let ftl_served_test () =
  let module F = Gnrflash_memory.Ftl in
  let ftl = F.create { F.default_config with F.endurance_limit = max_int } in
  let capacity = F.logical_capacity ftl in
  let next = ref 0 in
  let write () =
    let lpn = Sweep.splitmix ~seed:2014 ~index:!next mod capacity in
    incr next;
    (match F.write_in_place ftl ~lpn with
     | Ok () -> ()
     | Error e -> failwith (F.error_to_string e));
    F.clear_journal ftl
  in
  for lpn = 0 to capacity - 1 do
    ignore (F.write_in_place ftl ~lpn : (unit, F.error) result);
    F.clear_journal ftl
  done;
  for _ = 1 to 20 * capacity do
    write ()
  done;
  Test.make ~name:"ftl-write-served-1000"
    (stage (fun () ->
         for _ = 1 to 1000 do
           write ()
         done))

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

(* The end-to-end service row: one serial instance created and driven
   through [service_ops] host commands of the default profile, report
   included. The ops/s floor gates it. *)
module Svc = Gnrflash_memory.Service

let service_ops = 13_000
let service_row = "service-run-trace-13000"

let service_test =
  Test.make ~name:service_row
    (stage (fun () ->
         let s = Svc.create (Gnrflash.Params.device ()) in
         ignore
           (Svc.run_trace ~seed:(Sweep.splitmix ~seed:2014 ~index:0) ~ops:service_ops s)))

(* 3x the record-based service's 38.6k ops/s serial baseline on the
   reference host: the floor the SoA cell store was accepted against. *)
let svc_ops_per_s_floor = 115_800.
let service_max_ns = float_of_int service_ops *. 1e9 /. svc_ops_per_s_floor

(* A row is timed again, up to [max_takes] times in all, while its fit
   reads r^2 below [min_r_square]. On a shared host the machine's speed
   shifts for tenths of a second at a time (runs of consecutive samples
   read 40% faster, or twice as slow, as the rest of the row), and a fit
   across such a shift prices no unit cost. A row keeps its last take,
   and the JSON records how many it took. *)
let min_r_square = 0.9
let max_takes = 3

type row = { name : string; ns : float; r2 : float; takes : int }

(* Times every row; each row's OLS time per run [ns], r^2 and takes go to
   the JSON. *)
let run_benchmarks () =
  hr "Bechamel microbenchmarks";
  (* No GC compaction before each sample (bechamel's [stabilize]): on a
     row of a few us it costs far more than the batch, so the quota ran
     out on batches too small to fit. *)
  let cfg = Benchmark.cfg ~limit:1000 ~stabilize:false ~quota:(Time.second 0.3) () in
  (* the word-program row's batches stay within its ring: 1, 2, .. 100 runs *)
  let word_cfg = Benchmark.cfg ~limit:100 ~stabilize:false ~quota:(Time.second 0.3) () in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let fit cfg elt =
    let est = Analyze.one ols Instance.monotonic_clock (Benchmark.run cfg instances elt) in
    let ns = match Analyze.OLS.estimates est with Some [ e ] -> e | _ -> nan in
    (ns, match Analyze.OLS.r_square est with Some r -> r | None -> nan)
  in
  let rec take cfg elt takes =
    let ns, r2 = fit cfg elt in
    if r2 >= min_r_square || takes >= max_takes then
      { name = Test.Elt.name elt; ns; r2; takes }
    else take cfg elt (takes + 1)
  in
  let all_tests =
    List.map (fun t -> (cfg, t))
      (workload_tests @ kernel_tests
      @ [ settled_cycles_test (); sector_erase_test (); ftl_served_test () ]
      @ fsm_read_tests ())
    @ [ (word_cfg, word_program_test ()) ]
    @ List.map (fun t -> (cfg, t)) (system_tests @ [ service_test ])
  in
  Printf.printf "  %-28s %14s %10s %6s\n" "benchmark" "time/run" "r^2" "takes";
  List.concat_map
    (fun (cfg, test) ->
       List.map
         (fun elt ->
            let r = take cfg elt 1 in
            let time_str =
              if r.ns > 1e9 then Printf.sprintf "%.3f s" (r.ns /. 1e9)
              else if r.ns > 1e6 then Printf.sprintf "%.3f ms" (r.ns /. 1e6)
              else if r.ns > 1e3 then Printf.sprintf "%.3f us" (r.ns /. 1e3)
              else Printf.sprintf "%.1f ns" r.ns
            in
            Printf.printf "  %-28s %14s %10.4f %6d\n" r.name time_str r.r2 r.takes;
            r)
         (Test.elements test))
    all_tests

let row_ns bechamel row =
  match List.find_opt (fun r -> r.name = row) bechamel with
  | Some r -> r.ns
  | None -> nan

let service_ns bechamel = row_ns bechamel service_row
let service_ok ns = ns <= service_max_ns

(* the sense row over the read row; nan (failing the gate) if either fit
   failed *)
let fsm_read_speedup bechamel =
  row_ns bechamel "fsm-sense-word" /. row_ns bechamel "fsm-read-word"

let fsm_read_ok bechamel = fsm_read_speedup bechamel >= fsm_read_gate

let print_service ns =
  hr "Service: ops/s floor";
  Printf.printf "  %s: %.3f ms/run = %.0f ops/s (floor %.0f, max %.3f ms/run)  %s\n"
    service_row (ns /. 1e6)
    (float_of_int service_ops *. 1e9 /. ns)
    svc_ops_per_s_floor (service_max_ns /. 1e6)
    (if service_ok ns then "ok" else "BELOW FLOOR")

let print_fsm_read bechamel =
  hr "Command_fsm: kept readout vs cell sense";
  Printf.printf "  fsm-sense-word / fsm-read-word = %.2fx (gate %.1fx)  %s\n"
    (fsm_read_speedup bechamel) fsm_read_gate
    (if fsm_read_ok bechamel then "ok" else "FAILED")

(* ---------- BENCH_telemetry.json ---------- *)

(* A failed fit is nan, which JSON cannot hold. *)
let num x = if Float.is_finite x then Printf.sprintf "%.6e" x else "null"

let write_bench_telemetry ~path ~scaling ~perf ~surrogate ~bechamel =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"schema\":\"gnrflash-bench-telemetry/2\",";
  let scaling_row (r : scaling_row) =
    Printf.sprintf
      "{\"serial_s\":%.6e,\"parallel_s\":%.6e,\"speedup\":%.3f,\"identical\":%b,\
       \"pool_rounds\":%d}"
      r.serial_s r.parallel_s (r.serial_s /. r.parallel_s) r.identical r.pool_rounds
  in
  Buffer.add_string b
    (Printf.sprintf
       "\"sweep\":{\"cores\":%d,\"jobs\":%d,\"host_parallelism\":%s,\"grid\":%s,\
        \"monte_carlo\":%s,\"rounds\":%d,\"overhead\":{\"pool_spawned\":%d,\
        \"mc_flushes\":%d},\"scaling_ok\":%b}"
       scaling.cores scaling.pool_jobs (num scaling.host_parallelism)
       (scaling_row scaling.grid)
       (scaling_row scaling.monte_carlo) scaling_rounds
       scaling.pool_spawned scaling.mc_flushes (scaling_ok scaling));
  Buffer.add_string b ",\"perf\":{";
  List.iter
    (fun r ->
       Buffer.add_string b
         (Printf.sprintf
            "\"%s\":{\"measured\":%d,\"budget\":%d,\"seed_baseline\":%d,\"ok\":%b},"
            r.metric r.measured r.budget r.seed_baseline (row_ok r)))
    perf.rows;
  Buffer.add_string b
    (Printf.sprintf "\"pulse_exact_solves\":%d,\"pulse_surrogate_builds\":%d,\"ok\":%b}"
       perf.pulse_exact_solves perf.pulse_builds (perf_ok perf));
  Buffer.add_string b
    (Printf.sprintf
       ",\"surrogate\":{\"per_pulse_exact_s\":%.6e,\"per_pulse_surrogate_s\":%.6e,\
        \"speedup\":%.1f,\"speedup_gate\":%.0f,\"ok\":%b}"
       surrogate.exact_s surrogate.surrogate_s (speedup surrogate)
       surrogate_speedup_gate (surrogate_ok surrogate));
  let ns = service_ns bechamel in
  Buffer.add_string b
    (Printf.sprintf
       ",\"service\":{\"row\":\"%s\",\"ops\":%d,\"ns_per_run\":%s,\
        \"max_ns_per_run\":%.6e,\"ops_per_s\":%s,\"ops_per_s_floor\":%.0f,\"ok\":%b}"
       service_row service_ops (num ns) service_max_ns
       (num (float_of_int service_ops *. 1e9 /. ns))
       svc_ops_per_s_floor (service_ok ns));
  Buffer.add_string b
    (Printf.sprintf ",\"fsm_read\":{\"speedup\":%s,\"gate\":%.1f,\"ok\":%b}"
       (num (fsm_read_speedup bechamel)) fsm_read_gate (fsm_read_ok bechamel));
  Buffer.add_string b ",\"bechamel\":{";
  List.iteri
    (fun i r ->
       if i > 0 then Buffer.add_char b ',';
       Buffer.add_string b
         (Printf.sprintf "\"%s\":{\"ns_per_run\":%s,\"r_square\":%s,\"takes\":%d}"
            r.name (num r.ns) (num r.r2) r.takes))
    bechamel;
  Buffer.add_string b "}}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc;
  Printf.printf "\nwrote %s (%d bechamel rows)\n" path (List.length bechamel)

let () =
  (* --quick: the smoke run wired into `dune runtest` -- the eval budgets
     and the surrogate speed gate, but no scaling comparison, no Bechamel
     rows and no JSON artifact. *)
  let quick = Array.exists (String.equal "--quick") Sys.argv in
  let perf = budget_pass () in
  print_perf perf;
  let surrogate = surrogate_speed () in
  print_surrogate surrogate;
  let gates =
    [
      (perf_ok perf, "eval budgets exceeded or not exercised");
      (surrogate_ok surrogate, "pulse-surrogate speed-up gate FAILED");
    ]
  in
  let gates =
    if quick then gates
    else begin
      (* the rows run before the scale-out part spawns the domain pool:
         while its domains idle, every minor GC is a stop-the-world
         handshake with them, which made allocating rows up to a third
         slower *)
      let bechamel = run_benchmarks () in
      let scaling = sweep_scaling () in
      let ns = service_ns bechamel in
      print_service ns;
      print_fsm_read bechamel;
      write_bench_telemetry ~path:"BENCH_telemetry.json" ~scaling ~perf ~surrogate
        ~bechamel;
      gates
      @ [
          ( scaling_ok scaling,
            "parallel scale-out gate FAILED (non-identical output, sub-0.9x \
             speedup on a multi-core host, or overhead over budget)" );
          (service_ok ns, "service ops/s floor FAILED");
          (fsm_read_ok bechamel, "Command_fsm kept-readout speed gate FAILED");
        ]
    end
  in
  hr (if quick then "Done (quick)" else "Done");
  let failures = List.filter_map (fun (ok, msg) -> if ok then None else Some msg) gates in
  List.iter (fun msg -> prerr_endline ("bench: " ^ msg)) failures;
  if failures <> [] then exit 1
