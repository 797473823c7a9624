module Tr = Gnrflash_device.Transient
module F = Gnrflash_device.Fgt
module Tel = Gnrflash_telemetry.Telemetry
module O = Gnrflash_numerics.Ode
open Gnrflash_testing.Testing

(* the numerics/device solvers under test return typed solver errors *)
let check_ok msg r = check_sok msg r
let check_error msg r = ignore (check_serr msg r)

let t = F.paper_default

let run_program () =
  check_ok "transient" (Tr.run t ~vgs:15. ~duration:10.)

let test_initial_currents () =
  let ji, jo = Tr.initial_currents t ~vgs:15. ~qfg:0. in
  check_close ~tol:1e-3 "Jin at t=0" 2.8568e6 ji;
  check_true "Jout negligible" (jo < 1e-5)

let test_jin_monotone_decreasing () =
  let r = run_program () in
  let samples = r.Tr.samples in
  for i = 0 to Array.length samples - 2 do
    check_true "Jin decreasing" (samples.(i + 1).Tr.j_in <= samples.(i).Tr.j_in +. 1e-9)
  done

let test_jout_monotone_increasing () =
  let r = run_program () in
  let samples = r.Tr.samples in
  for i = 0 to Array.length samples - 2 do
    check_true "Jout increasing" (samples.(i + 1).Tr.j_out >= samples.(i).Tr.j_out -. 1e-9)
  done

let test_vfg_relaxes_to_divider_point () =
  (* the fixed point Jin = Jout for identical interfaces: VFG/XTO = (VGS-VFG)/XCO
     -> VFG* = VGS XTO/(XTO+XCO) = 5 V *)
  let r = run_program () in
  let final = r.Tr.samples.(Array.length r.Tr.samples - 1) in
  check_close ~tol:5e-3 "VFG -> 5 V" 5. final.Tr.vfg

let test_tsat_reached () =
  let r = run_program () in
  match r.Tr.tsat with
  | None -> Alcotest.fail "saturation not reached"
  | Some ts ->
    check_in "tsat order of magnitude" ~lo:1e-6 ~hi:1e-1 ts

let test_charge_monotone () =
  let r = run_program () in
  let samples = r.Tr.samples in
  for i = 0 to Array.length samples - 2 do
    check_true "charge monotone negative" (samples.(i + 1).Tr.qfg <= samples.(i).Tr.qfg +. 1e-25)
  done;
  check_true "final negative" (r.Tr.qfg_final < 0.)

let test_dvt_positive_after_program () =
  let r = run_program () in
  check_in "threshold window" ~lo:5. ~hi:8. r.Tr.dvt_final

let test_erase_symmetry () =
  let rp = run_program () in
  let re = check_ok "erase" (Tr.run t ~vgs:(-15.) ~duration:10.) in
  (* identical interfaces: erase is the mirror image *)
  check_close ~tol:1e-3 "mirror charge" (-.rp.Tr.qfg_final) re.Tr.qfg_final;
  (match rp.Tr.tsat, re.Tr.tsat with
   | Some tp, Some te -> check_close ~tol:0.05 "mirror tsat" tp te
   | _ -> Alcotest.fail "both polarities must saturate")

let test_saturation_charge_matches_ode () =
  let q_root = check_ok "root" (Tr.saturation_charge t ~vgs:15.) in
  let r = run_program () in
  check_close ~tol:0.02 "ODE endpoint = fixed point" q_root r.Tr.qfg_final

let test_zero_bias_balanced () =
  let r = check_ok "zero bias" (Tr.run t ~vgs:0. ~duration:1.) in
  check_close "no charge motion" 0. r.Tr.qfg_final;
  check_true "trivially saturated" (r.Tr.tsat = Some 0.)

let test_duration_validation () =
  check_error "bad duration" (Tr.run t ~vgs:15. ~duration:0.);
  (* [pulse] rejects it with [run]'s typed error, solver name included, so
     a caller's error text does not depend on which one it uses *)
  match Tr.run t ~vgs:15. ~duration:0., Tr.pulse t ~vgs:15. ~duration:0. with
  | Error a, Error b -> check_true "pulse error = run error" (a = b)
  | _ -> Alcotest.fail "a non-positive duration must fail both"

let test_time_to_threshold () =
  let time =
    check_ok "ttts" (Tr.time_to_threshold_shift t ~vgs:15. ~dvt:2. ~max_time:1.)
  in
  match time with
  | None -> Alcotest.fail "2 V shift must be reachable"
  | Some ts ->
    check_in "nanosecond programming" ~lo:1e-10 ~hi:1e-6 ts;
    (* confirm by integrating exactly that long *)
    let r = check_ok "confirm" (Tr.run t ~vgs:15. ~duration:ts) in
    check_close ~tol:0.05 "dVT at that time" 2. r.Tr.dvt_final

(* Targets beyond the bias's fixed point answer [None] without an ODE
   step: at 15 V the bias can shift VT by at most ~6.7 V, so 20 V is past
   the fixed point, and an erase bias (-17 V) moves VT down, away from a
   +1 V target. The fixed point from Brent's method on Jin - Jout (an
   independent path) confirms each target lies beyond it. *)
let test_time_to_threshold_unreachable () =
  Tel.reset ();
  Tel.enable ();
  Fun.protect ~finally:(fun () -> Tel.disable (); Tel.reset ()) @@ fun () ->
  List.iter
    (fun (vgs, dvt) ->
       let label = Printf.sprintf "vgs=%g dvt=%g" vgs dvt in
       Tel.reset ();
       let time =
         check_ok label (Tr.time_to_threshold_shift t ~vgs ~dvt ~max_time:1.)
       in
       check_true (label ^ " unreachable") (time = None);
       Alcotest.(check int) (label ^ " no RHS evaluation") 0
         (Tel.For_testing.counter_total "ode/rhs_eval");
       let q_sat = check_ok label (Tr.saturation_charge t ~vgs) in
       check_true (label ^ " fixed point short of the target")
         (F.threshold_shift t ~qfg:q_sat < dvt))
    [ (15., 20.); (-17., 1.) ];
  (* a reachable target still integrates *)
  Tel.reset ();
  ignore (check_ok "reachable" (Tr.time_to_threshold_shift t ~vgs:15. ~dvt:2. ~max_time:1.));
  check_true "reachable target integrates"
    (Tel.For_testing.counter_total "ode/rhs_eval" > 0)

let test_higher_vgs_faster () =
  let time v =
    match check_ok "ttts" (Tr.time_to_threshold_shift t ~vgs:v ~dvt:1. ~max_time:1.) with
    | Some ts -> ts
    | None -> infinity
  in
  check_true "15 V faster than 12 V" (time 15. < time 12.)

(* Pin Fig 5's Jin = Jout crossing on a (vgs, GCR) grid: the ODE endpoint
   (adaptive RKF45 + imbalance event) must agree with the fixed point found
   by Brent's method on Jin - Jout — two independent solver paths. *)
let test_fixed_point_grid () =
  List.iter
    (fun gcr ->
       let t = F.with_gcr t gcr in
       List.iter
         (fun vgs ->
            let label = Printf.sprintf "vgs=%.1f gcr=%.2f" vgs gcr in
            let r = check_ok label (Tr.run t ~vgs ~duration:10.) in
            let q_star = check_ok label (Tr.saturation_charge t ~vgs) in
            check_true (label ^ ": saturated") (r.Tr.tsat <> None);
            check_close ~tol:0.02 (label ^ ": ODE endpoint = fixed point") q_star
              r.Tr.qfg_final)
         [ 12.; 15.; 17.; -12.; -15. ])
    [ 0.5; 0.6; 0.7 ]

(* Instrumentation correctness: the ODE telemetry must be consistent with the
   returned sample array. The FSAL DOPRI5(4) stepper appends exactly one
   sample per accepted step (the event step contributes the located crossing
   instead of t_new), and every trial step — accepted, rejected, or
   NaN-shrunk — costs exactly 6 RHS evaluations (stages k2..k7; k1 is the
   FSAL slope carried over from the previous step), plus one eval to seed the
   very first k1 and one re-seed after each NaN shrink (a poisoned cached
   slope must not be reused). Guards against double-counting regressions. *)
let test_instrumentation_consistency () =
  Tel.reset ();
  Tel.enable ();
  Fun.protect ~finally:(fun () -> Tel.disable (); Tel.reset ()) @@ fun () ->
  let r = check_ok "instrumented run" (Tr.run t ~vgs:15. ~duration:10.) in
  let accepted = Tel.For_testing.counter_total "ode/step_accepted" in
  let rejected = Tel.For_testing.counter_total "ode/step_rejected" in
  let nan_shrunk = Tel.For_testing.counter_total "ode/step_nan_shrink" in
  let rhs = Tel.For_testing.counter_total "ode/rhs_eval" in
  let trials = accepted + rejected + nan_shrunk in
  check_true "steps taken" (accepted > 0);
  check_true "rhs evaluated" (rhs > 0);
  Alcotest.(check int) "samples = accepted steps + initial state"
    (accepted + 1) (Array.length r.Tr.samples);
  Alcotest.(check int) "rhs evals = 6 per trial + FSAL seeds"
    ((6 * trials) + 1 + nan_shrunk) rhs;
  Alcotest.(check int) "one solve recorded" 1 (Tel.For_testing.counter_total "transient/solve");
  Alcotest.(check int) "tsat event recorded" 1
    (Tel.For_testing.counter_total "transient/tsat_event");
  (* scoped attribution: the ODE work is recorded under the transient span *)
  Alcotest.(check int) "attributed to transient/run"
    accepted (Tel.For_testing.counter "transient/run/ode/step_accepted");
  (* a second identical run must add the same counts (no cross-run leakage) *)
  let _ = check_ok "second run" (Tr.run t ~vgs:15. ~duration:10.) in
  Alcotest.(check int) "counters additive across runs"
    (2 * accepted) (Tel.For_testing.counter_total "ode/step_accepted")

let test_disabled_records_nothing () =
  Tel.reset ();
  check_false "disabled by default in tests" (Tel.For_testing.is_enabled ());
  let _ = check_ok "uninstrumented run" (Tr.run t ~vgs:15. ~duration:1e-3) in
  check_true "no counters recorded" ((Tel.snapshot ()).Tel.counters = [])

let test_saturation_charge_erase_polarity () =
  (* regression: the single [0, 1.05 q*] bracket could miss the erase-side
     fixed point; for the symmetric paper device the erase fixed point must
     mirror the program one *)
  let q_prog = check_ok "program" (Tr.saturation_charge t ~vgs:15.) in
  let q_erase = check_ok "erase" (Tr.saturation_charge t ~vgs:(-15.)) in
  check_true "program stores electrons" (q_prog < 0.);
  check_close ~tol:1e-6 "erase mirrors program" (-.q_prog) q_erase

let test_saturation_charge_high_gcr () =
  List.iter
    (fun gcr ->
       let t = F.with_gcr t gcr in
       let label = Printf.sprintf "gcr=%.2f" gcr in
       let q = check_ok label (Tr.saturation_charge t ~vgs:15.) in
       let ji = F.j_in t ~vgs:15. ~qfg:q and jo = F.j_out t ~vgs:15. ~qfg:q in
       check_close ~tol:1e-3 (label ^ ": currents balance") ji jo)
    [ 0.3; 0.5; 0.8 ]

(* An independent oracle for the fixed point. On an unperturbed device
   both oxides share FN coefficients and VS = 0, so Jin = Jout means equal
   oxide fields, VFG = VGS·XTO/(XTO + XCO), and the charge is the closed
   form q* = (VGS·XTO/(XTO + XCO) − GCR·VGS)·CT. The 1e-9 relative
   tolerance is Brent's 1e-12 bracket width with margin, not a measured
   error. *)
let prop_saturation_charge_closed_form =
  let open QCheck2.Gen in
  let vgs = map2 (fun m pos -> if pos then m else -.m) (float_range 8. 17.) bool in
  prop "saturation charge = voltage-divider closed form" ~count:200
    (triple vgs (float_range 0.45 0.60) (float_range 5e-9 9e-9))
    (fun (vgs, gcr, xto) ->
       let dev = F.with_xto (F.with_gcr t gcr) xto in
       let xco = dev.F.xco in
       let q_star = ((vgs *. xto /. (xto +. xco)) -. (F.gcr dev *. vgs)) *. F.ct dev in
       dev.F.tunnel_fn = dev.F.control_fn
       && dev.F.vs = 0.
       &&
       match Tr.saturation_charge dev ~vgs with
       | Ok q -> abs_float (q -. q_star) <= 1e-9 *. abs_float q_star
       | Error _ -> false)

(* Regression: a tunnel barrier below the control one (as [Variation]
   draws) moves the fixed point past the voltage-divider charge q*, so
   Brent's first bracket [0, 1.05 q*] has no sign change and the solve
   re-brackets from [0, q*]. Checked at 15 V both ways round on the paper
   device with the tunnel barrier 0.2 eV low, a 4-sigma draw of
   [Variation.default_spread]; 12 of 2,000 [Variation.perturbed] devices,
   each solved at one random |VGS| in 8-17 V, missed the first bracket. *)
let test_saturation_charge_rebracket () =
  let fn = t.F.tunnel_fn in
  let module Fn = Gnrflash_quantum.Fn in
  let dev =
    { t with
      F.tunnel_fn =
        Fn.coefficients ~phi_b_ev:(fn.Fn.phi_b_ev -. 0.2) ~m_ox_rel:fn.Fn.m_ox_rel }
  in
  List.iter
    (fun vgs ->
       let label = Printf.sprintf "vgs=%g" vgs in
       let imbalance q = F.j_in dev ~vgs ~qfg:q -. F.j_out dev ~vgs ~qfg:q in
       let q_star = ((vgs *. t.F.xto /. (t.F.xto +. t.F.xco)) -. (F.gcr t *. vgs)) *. F.ct t in
       check_true (label ^ ": no sign change on [0, 1.05 q*]")
         (imbalance 0. *. imbalance (1.05 *. q_star) > 0.);
       let q = check_ok label (Tr.saturation_charge dev ~vgs) in
       check_true (label ^ ": beyond q*") (abs_float q > abs_float q_star);
       check_close ~tol:1e-6 (label ^ ": currents balance")
         (F.j_in dev ~vgs ~qfg:q) (F.j_out dev ~vgs ~qfg:q))
    [ 15.; -15. ]

let test_budget_exhaustion_surfaces () =
  (* a starved budget must surface as a typed error, not a hang or a raw
     exception *)
  let module B = Gnrflash.Resilience.Budget in
  let module E = Gnrflash.Resilience.Solver_error in
  let e =
    check_serr "starved run"
      (B.with_budget (B.make ~max_evals:10 ()) (fun () ->
           Tr.run t ~vgs:15. ~duration:10.))
  in
  Alcotest.(check string) "typed budget error" "budget_exhausted" (E.label e)

(* Cold-start step-size heuristic: on the nominal Fig 5 workload the first
   trial step must succeed outright — no NaN shrink-and-retry cascade from a
   wildly wrong initial dt. [h_first] also surfaces the accepted size for the
   warm-start layer. *)
let test_cold_start_no_nan_shrink () =
  Tel.reset ();
  Tel.enable ();
  Fun.protect ~finally:(fun () -> Tel.disable (); Tel.reset ()) @@ fun () ->
  let r = check_ok "fig5 run" (Tr.run t ~vgs:15. ~duration:10.) in
  Alcotest.(check int) "no NaN shrinks on the nominal run" 0
    (Tel.For_testing.counter_total "ode/step_nan_shrink");
  (match r.Tr.h_first with
   | None -> Alcotest.fail "h_first missing on a multi-step run"
   | Some h -> check_true "h_first positive and finite" (h > 0. && Float.is_finite h));
  (* an explicit h0 is honoured (clamped to the duration) and reproduces the
     same endpoint within solver tolerance *)
  let r2 =
    check_ok "explicit h0" (Tr.run ~h0:1e-7 t ~vgs:15. ~duration:10.)
  in
  check_close ~tol:1e-6 "endpoint insensitive to h0" r.Tr.qfg_final r2.Tr.qfg_final

(* Golden pin for the interpolated event localization. The seed (step-doubling
   RKF45 + re-integration bisection on Jin−Jout) measured
   ttts(2 V) = 9.94552227058640383e-09 s; locating the same crossing on the
   DOPRI5 dense interpolant reproduces it to 7.6e-9 relative — the crossing
   is now resolved within the *integration* tolerance rather than by
   re-stepping, so exact bit-equality is not expected. Documented tolerance:
   1e-7 relative (ISSUE 5); tightening it further requires re-baselining. *)
let test_ttts_golden () =
  let seed_ttts = 9.94552227058640383e-09 in
  match
    check_ok "ttts" (Tr.time_to_threshold_shift t ~vgs:15. ~dvt:2. ~max_time:1.)
  with
  | None -> Alcotest.fail "2 V shift must be reachable"
  | Some ts ->
    check_true
      (Printf.sprintf "ttts %.17e within 1e-7 rel of seed %.17e" ts seed_ttts)
      (abs_float (ts -. seed_ttts) /. seed_ttts <= 1e-7)

(* Property: the interpolated event time, re-integrated from scratch for
   exactly that duration, lands on the threshold — dense-output event
   localization vs re-integration, across random (vgs, GCR) devices. *)
let prop_event_time_vs_reintegration =
  prop "interpolated ttts lands on threshold under re-integration" ~count:8
    QCheck2.Gen.(pair (float_range 12. 17.) (float_range 0.45 0.7))
    (fun (vgs, gcr) ->
       let t = F.with_gcr t gcr in
       match Tr.time_to_threshold_shift t ~vgs ~dvt:2. ~max_time:1. with
       | Ok (Some ts) ->
         (match Tr.run t ~vgs ~duration:ts with
          | Ok r -> abs_float (r.Tr.dvt_final -. 2.) <= 1e-3
          | Error _ -> false)
       | _ -> false)

let prop_final_dvt_bounded_by_fixed_point =
  prop "transient never overshoots the fixed point" ~count:8
    QCheck2.Gen.(float_range 12. 17.)
    (fun vgs ->
       match Tr.run t ~vgs ~duration:10., Tr.saturation_charge t ~vgs with
       | Ok r, Ok q_star -> r.Tr.qfg_final >= q_star *. 1.01 -. 1e-20 || r.Tr.qfg_final >= q_star
       | _ -> false)

(* Regression: a start already at or past the target used to return
   [Ok None] -- the event began on (or beyond) its zero and never saw a
   crossing. Like [run]'s already-balanced start, it needs no time. *)
let test_time_to_threshold_already_reached () =
  let q_target = F.qfg_for_threshold_shift t ~dvt:2. in
  List.iter
    (fun qfg0 ->
       let time =
         check_ok "ttts" (Tr.time_to_threshold_shift ~qfg0 t ~vgs:15. ~dvt:2. ~max_time:1.)
       in
       check_true (Printf.sprintf "qfg0 = %g: zero time" qfg0) (time = Some 0.))
    [ q_target; 1.2 *. q_target ]

(* The transient integrated through the public unit-typed [Fgt] functions
   with [Transient.run]'s own recipe: the same tolerances, cold-start [h0],
   saturation event and already-balanced start. The fused rate kernel must
   reproduce it bit for bit. *)
let reference dev ~vgs ~qfg0 ~duration =
  let rhs _ q = F.For_testing.dqfg_dt dev ~vgs ~qfg:q in
  let imbalance _ q =
    let ji = F.j_in dev ~vgs ~qfg:q and jo = F.j_out dev ~vgs ~qfg:q in
    let s = ji +. jo in
    if s <= 0. then -1. else (abs_float (ji -. jo) /. s) -. 0.01
  in
  let atol = 1e-10 *. F.ct dev *. (1. +. abs_float vgs) in
  let h0 =
    let q_scale = F.ct dev *. (1. +. abs_float vgs) in
    let f0 = abs_float (rhs 0. qfg0) in
    if Float.is_finite f0 && f0 > 0. then Float.min (duration /. 100.) (0.01 *. q_scale /. f0)
    else duration /. 100.
  in
  let rtol = 1e-8 in
  if imbalance 0. qfg0 <= 0. then
    Result.map (fun tr -> (tr, Some 0.))
      (O.For_testing.rkf45 ~rtol ~atol ~h0 ~f:rhs ~t0:0. ~y0:qfg0 ~t1:duration ())
  else
    Result.map
      (fun r -> (r.O.For_testing.trajectory, r.O.For_testing.event_time))
      (O.For_testing.rkf45_event ~rtol ~atol ~h0 ~f:rhs ~event:imbalance ~t0:0. ~y0:qfg0
         ~t1:duration ())

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_bits_opt a b =
  match a, b with
  | None, None -> true
  | Some a, Some b -> same_bits a b
  | _ -> false

let matches_reference dev ~vgs ~qfg0 ~duration =
  match Tr.run ~qfg0 dev ~vgs ~duration, reference dev ~vgs ~qfg0 ~duration with
  | Error _, Error _ -> true
  | Ok r, Ok ({ O.times; states }, tsat) ->
    let n = Array.length times in
    let qfg_final = states.(n - 1) in
    let sample_ok i (s : Tr.sample) =
      let q = states.(i) in
      same_bits s.Tr.time times.(i)
      && same_bits s.Tr.qfg q
      && same_bits s.Tr.vfg (F.vfg dev ~vgs ~qfg:q)
      && same_bits s.Tr.j_in (F.j_in dev ~vgs ~qfg:q)
      && same_bits s.Tr.j_out (F.j_out dev ~vgs ~qfg:q)
    in
    Array.length r.Tr.samples = n
    && Array.for_all Fun.id (Array.mapi sample_ok r.Tr.samples)
    && same_bits_opt r.Tr.tsat tsat
    && same_bits r.Tr.qfg_final qfg_final
    && same_bits r.Tr.dvt_final (F.threshold_shift dev ~qfg:qfg_final)
    && same_bits_opt r.Tr.h_first
         (if n >= 2 then Some (times.(1) -. times.(0)) else None)
  | _ -> false

(* The paper's box: |VGS| 8-17 V of either polarity and VGS = 0, GCR
   0.45-0.60, XTO 5-9 nm, a start charge within +-1.5 q_sat (0 included)
   and durations 1 ns - 0.1 s (as log10 of the duration). *)
let paper_box =
  let open QCheck2.Gen in
  let vgs =
    frequency
      [ (1, return 0.); (6, map2 (fun m pos -> if pos then m else -.m) (float_range 8. 17.) bool) ]
  in
  let start = frequency [ (1, return 0.); (4, float_range (-1.5) 1.5) ] in
  tup5 vgs (float_range 0.45 0.60) (float_range 5e-9 9e-9) start (float_range (-9.) (-1.))

(* A box point's device and start charge: [start] times the magnitude of
   the fixed-point charge at [vgs] (at 15 V for VGS = 0). *)
let box_start (vgs, gcr, xto, start, _) =
  let dev = F.with_xto (F.with_gcr t gcr) xto in
  let q_sat =
    match Tr.saturation_charge dev ~vgs:(if vgs = 0. then 15. else vgs) with
    | Ok q -> abs_float q
    | Error _ -> 0.
  in
  (dev, start *. q_sat)

let prop_kernel_bit_identical =
  prop "fused kernel bit-identical to the unit-typed path" ~count:150 paper_box
    (fun ((vgs, _, _, _, log_duration) as point) ->
       let dev, qfg0 = box_start point in
       matches_reference dev ~vgs ~qfg0 ~duration:(10. ** log_duration))

(* [pulse] is [run] without the trajectory: over the paper box, with and
   without a warm-start [h0], a clean solve must succeed, [pulse]'s four
   scalars must equal [run]'s bit for bit, it must spend the same
   [ode/rhs_eval] count, and under an eval budget it must return the same
   result or the same typed error (the budget error's wall-clock field
   aside). *)
let rhs_evals f =
  Tel.reset ();
  Tel.enable ();
  Fun.protect ~finally:(fun () -> Tel.disable (); Tel.reset ()) @@ fun () ->
  let r = f () in
  (r, Tel.For_testing.counter_total "ode/rhs_eval")

let same_error (a : Gnrflash_resilience.Solver_error.t) (b : Gnrflash_resilience.Solver_error.t) =
  let module E = Gnrflash_resilience.Solver_error in
  let norm = function
    | E.Budget_exhausted { evals; _ } -> E.Budget_exhausted { evals; elapsed_s = 0. }
    | k -> k
  in
  String.equal a.E.solver b.E.solver && norm a.E.kind = norm b.E.kind

let pulse_matches_run ~run ~pulse =
  match run (), pulse () with
  | Ok (r : Tr.result), Ok (p : Tr.final) ->
    same_bits r.Tr.qfg_final p.Tr.qfg_final
    && same_bits r.Tr.dvt_final p.Tr.dvt_final
    && same_bits_opt r.Tr.tsat p.Tr.tsat
    && same_bits_opt r.Tr.h_first p.Tr.h_first
  | Error a, Error b -> same_error a b
  | _ -> false

let prop_pulse_matches_run =
  let module B = Gnrflash.Resilience.Budget in
  let h0 = QCheck2.Gen.(option (map (fun e -> 10. ** e) (float_range (-13.) (-3.)))) in
  prop "pulse = run: final state, counts and typed errors" ~count:60
    (QCheck2.Gen.triple paper_box h0 (QCheck2.Gen.int_range 1 3000))
    (fun (((vgs, _, _, _, log_duration) as point), h0, max_evals) ->
       let dev, qfg0 = box_start point in
       let duration = 10. ** log_duration in
       let run () = Tr.run ?h0 ~qfg0 dev ~vgs ~duration in
       let pulse () = Tr.pulse ?h0 ~qfg0 dev ~vgs ~duration in
       let r, run_evals = rhs_evals run in
       let p, pulse_evals = rhs_evals pulse in
       let starved f () = B.with_budget (B.make ~max_evals ()) f in
       Result.is_ok r
       && pulse_matches_run ~run:(fun () -> r) ~pulse:(fun () -> p)
       && run_evals = pulse_evals
       && pulse_matches_run ~run:(starved run) ~pulse:(starved pulse))

(* [time_to_threshold_shift] over the same box, with [vgs] = 0 read as
   15 V, a target between -0.2 and 1.2 times the fixed point's threshold
   shift and the box duration as the horizon: a clean solve must succeed,
   with a time inside the horizon when the target is reached. *)
let prop_ttts_box =
  prop "time_to_threshold_shift succeeds over the paper box" ~count:60
    (QCheck2.Gen.pair paper_box (QCheck2.Gen.float_range (-0.2) 1.2))
    (fun (((vgs, _, _, _, log_duration) as point), frac) ->
       let dev, qfg0 = box_start point in
       let vgs = if vgs = 0. then 15. else vgs in
       let max_time = 10. ** log_duration in
       match Tr.saturation_charge dev ~vgs with
       | Error _ -> false
       | Ok q_sat ->
         let dvt = frac *. F.threshold_shift dev ~qfg:q_sat in
         match Tr.time_to_threshold_shift ~qfg0 dev ~vgs ~dvt ~max_time with
         | Ok (Some ts) -> ts >= 0. && ts <= max_time
         | Ok None -> true
         | Error _ -> false)

(* Allocation pins (native code only: bytecode boxes every float). One cold
   15 V / 100 us [run] measured [run_words] minor words: its 571 RHS
   evaluations and 94 event checks write flat float records and box
   nothing, so what is left is the 95 trajectory slots (buffers doubling
   from 16), their samples, and the fixed setup. The bound leaves 15%
   headroom; a float boxed per kernel evaluation (6 words, ~3400 here),
   or a per-stage array in the stepper, breaks it. *)
let run_words = 1848.

let minor_words_of f =
  ignore (f ());
  let before = Gc.minor_words () in
  ignore (f ());
  Gc.minor_words () -. before

let test_run_allocation () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let words =
    minor_words_of (fun () -> check_ok "solve" (Tr.run t ~vgs:15. ~duration:1e-4))
  in
  check_true
    (Printf.sprintf "%.0f minor words <= %.0f" words (1.15 *. run_words))
    (words <= 1.15 *. run_words)

(* [pulse] keeps no trajectory, so a solve allocates a constant: the
   closures, records and options of one solve, [pulse_words] at most
   (measured 108-120 over these pulses on the release build). The pulses span 55 to 649 RHS
   evaluations, cold and warm-started, saturating or not; one boxed float
   per evaluation or one slot per step would exceed the bound on the
   longer ones. *)
let pulse_words = 120.

let test_pulse_allocation () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  List.iter
    (fun (label, h0, duration) ->
       let words =
         minor_words_of (fun () -> check_ok label (Tr.pulse ?h0 t ~vgs:15. ~duration))
       in
       check_true
         (Printf.sprintf "%s: %.0f minor words <= %.0f" label words (1.15 *. pulse_words))
         (words <= 1.15 *. pulse_words))
    [
      ("cold 1 ns", None, 1e-9);
      ("cold 100 us", None, 1e-4);
      ("warm 100 us", Some 1e-9, 1e-4);
      ("cold 0.1 s", None, 1e-1);
      ("warm 0.1 s", Some 1e-9, 1e-1);
    ]

let () =
  Alcotest.run "transient"
    [
      ( "transient",
        [
          case "initial currents" test_initial_currents;
          case "Jin monotone (Fig 5)" test_jin_monotone_decreasing;
          case "Jout monotone (Fig 5)" test_jout_monotone_increasing;
          case "VFG relaxes to divider point" test_vfg_relaxes_to_divider_point;
          case "tsat reached" test_tsat_reached;
          case "charge monotone" test_charge_monotone;
          case "final threshold window" test_dvt_positive_after_program;
          case "erase mirrors program" test_erase_symmetry;
          case "fixed point vs ODE" test_saturation_charge_matches_ode;
          case "zero bias balanced" test_zero_bias_balanced;
          case "duration validation" test_duration_validation;
          case "time to 2 V shift" test_time_to_threshold;
          case "unreachable target" test_time_to_threshold_unreachable;
          case "target already reached" test_time_to_threshold_already_reached;
          case "higher bias is faster" test_higher_vgs_faster;
          case "fixed point vs ODE on (vgs, GCR) grid" test_fixed_point_grid;
          case "saturation charge: erase polarity" test_saturation_charge_erase_polarity;
          case "saturation charge: GCR sweep" test_saturation_charge_high_gcr;
          case "saturation charge: low tunnel barrier rebrackets" test_saturation_charge_rebracket;
          prop_saturation_charge_closed_form;
          case "budget exhaustion is typed, not a hang" test_budget_exhaustion_surfaces;
          case "telemetry consistent with samples" test_instrumentation_consistency;
          case "telemetry disabled records nothing" test_disabled_records_nothing;
          case "cold start: no NaN shrink on Fig 5" test_cold_start_no_nan_shrink;
          case "ttts golden vs seed" test_ttts_golden;
          prop_event_time_vs_reintegration;
          prop_final_dvt_bounded_by_fixed_point;
          prop_kernel_bit_identical;
          prop_pulse_matches_run;
          prop_ttts_box;
          case "one solve's allocation" test_run_allocation;
          case "one pulse's allocation" test_pulse_allocation;
        ] );
    ]
