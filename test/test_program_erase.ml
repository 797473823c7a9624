module Pe = Gnrflash_device.Program_erase
module F = Gnrflash_device.Fgt
open Gnrflash_testing.Testing

(* the numerics/device solvers under test return typed solver errors *)
let check_ok msg r = check_sok msg r
let check_error msg r = ignore (check_serr msg r)

let t = F.paper_default

(* a cold engine per test: no test sees another's pulse caches *)
let engine ?surrogate () = Pe.engine ?surrogate t

(* the paper's default program and erase pulses *)
let program en ~qfg = Pe.apply_pulse en ~qfg Pe.default_program_pulse
let erase en ~qfg = Pe.apply_pulse en ~qfg Pe.default_erase_pulse

let test_default_pulses () =
  check_close "program bias" 15. Pe.default_program_pulse.Pe.vgs;
  check_close "erase bias" (-15.) Pe.default_erase_pulse.Pe.vgs;
  check_true "positive widths"
    (Pe.default_program_pulse.Pe.duration > 0. && Pe.default_erase_pulse.Pe.duration > 0.)

let test_program_outcome () =
  let o = check_ok "program" (program (engine ()) ~qfg:0.) in
  check_close "records initial charge" 0. o.Pe.qfg_before;
  check_true "stores electrons" (o.Pe.qfg_after < 0.);
  check_true "positive shift" (o.Pe.dvt_after > 1.);
  check_close ~tol:1e-9 "injected = |delta|" (abs_float o.Pe.qfg_after) o.Pe.injected_charge;
  check_true "1 ms pulse saturates" o.Pe.saturated

let test_erase_outcome () =
  let en = engine () in
  let p = check_ok "program" (program en ~qfg:0.) in
  let e = check_ok "erase" (erase en ~qfg:p.Pe.qfg_after) in
  check_true "charge removed" (e.Pe.qfg_after > p.Pe.qfg_after);
  check_true "threshold drops" (e.Pe.dvt_after < p.Pe.dvt_after)

let test_short_pulse_partial () =
  let short = { Pe.vgs = 15.; duration = 1e-9 } in
  let en = engine () in
  let o = check_ok "short" (Pe.apply_pulse en ~qfg:0. short) in
  let full = check_ok "full" (program en ~qfg:0.) in
  check_true "partial programming" (o.Pe.dvt_after < full.Pe.dvt_after);
  check_true "some charge still moved" (o.Pe.dvt_after > 0.01)

let test_pulse_validation () =
  check_error "zero duration"
    (Pe.apply_pulse (engine ()) ~qfg:0. { Pe.vgs = 15.; duration = 0. })

let test_cycle () =
  let en = engine () in
  let p = check_ok "program" (program en ~qfg:0.) in
  let e = check_ok "erase" (erase en ~qfg:p.Pe.qfg_after) in
  check_true "programmed then erased" (p.Pe.qfg_after < 0. && e.Pe.qfg_after > p.Pe.qfg_after);
  (* symmetric device: erase overshoots to the positive mirror charge *)
  check_close ~tol:0.05 "mirror" (-.p.Pe.qfg_after) e.Pe.qfg_after

let test_idempotent_saturation () =
  (* programming an already saturated cell moves almost no charge *)
  let en = engine () in
  let o1 = check_ok "first" (program en ~qfg:0.) in
  let o2 = check_ok "second" (program en ~qfg:o1.Pe.qfg_after) in
  check_true "second pulse injects far less"
    (o2.Pe.injected_charge < o1.Pe.injected_charge /. 100.)

(* Warm-started pulse trains: on a repeated program/erase train through one
   engine the step-size warm start and the exact-replay memoization must
   both engage (counters non-zero), stay silent with a fresh engine per
   pulse, and never change the physics — the warm train's final charge
   must match a fully cold train to solver tolerance (replays are
   bit-identical by construction; the h0 reuse only reshapes the step
   sequence). The surrogate is switched off here: it has precedence over
   the replay cache, so with it on these in-box pulses would be
   table-served and the warm/replay counters under test would never
   fire. *)
let run_train ~engine ~cycles =
  let pp = { Pe.vgs = 15.; duration = 100e-6 }
  and ep = { Pe.vgs = -15.; duration = 100e-6 } in
  let q = ref 0. in
  for _ = 1 to cycles do
    List.iter
      (fun pulse ->
         match Pe.apply_pulse (engine ()) ~qfg:!q pulse with
         | Ok o -> q := o.Pe.qfg_after
         | Error _ -> Alcotest.fail "train pulse failed")
      [ pp; ep ]
  done;
  !q

let test_warm_start_counters () =
  let module Tel = Gnrflash_telemetry.Telemetry in
  Tel.reset ();
  Tel.enable ();
  Fun.protect ~finally:(fun () -> Tel.disable (); Tel.reset ()) @@ fun () ->
  let warm = engine ~surrogate:false () in
  let q_warm = run_train ~engine:(fun () -> warm) ~cycles:10 in
  let warm_hits = Tel.For_testing.counter_total "transient/warm_start_hit" in
  let replays = Tel.For_testing.counter_total "program_erase/pulse_replay" in
  let rhs_warm = Tel.For_testing.counter_total "ode/rhs_eval" in
  check_true "h0 warm start engaged" (warm_hits > 0);
  check_true "limit-cycle replay engaged" (replays > 0);
  Alcotest.(check int) "all 20 pulses recorded" 20
    (Tel.For_testing.counter_total "program_erase/pulse");
  Tel.reset ();
  let q_cold = run_train ~engine:(engine ~surrogate:false) ~cycles:10 in
  Alcotest.(check int) "fresh engines: no warm hits" 0
    (Tel.For_testing.counter_total "transient/warm_start_hit");
  Alcotest.(check int) "fresh engines: no replays" 0
    (Tel.For_testing.counter_total "program_erase/pulse_replay");
  let rhs_cold = Tel.For_testing.counter_total "ode/rhs_eval" in
  check_true
    (Printf.sprintf "warm train cheaper: %d vs %d RHS evals" rhs_warm rhs_cold)
    (rhs_warm < rhs_cold);
  check_close ~tol:1e-6 "same physics warm or cold" q_cold q_warm

let test_warm_replay_bit_identical () =
  (* the same (device, vgs, duration, qfg) pulse twice in a row on the
     exact path (surrogate off): the second is a replay and must reproduce
     the first outcome bit-for-bit *)
  let pulse = { Pe.vgs = 15.; duration = 50e-6 } in
  let en = engine ~surrogate:false () in
  let o1 = check_ok "first" (Pe.apply_pulse en ~qfg:0. pulse) in
  let o2 = check_ok "replayed" (Pe.apply_pulse en ~qfg:0. pulse) in
  check_true "bit-identical replay"
    (Int64.equal
       (Int64.bits_of_float o1.Pe.qfg_after)
       (Int64.bits_of_float o2.Pe.qfg_after)
     && Int64.equal
          (Int64.bits_of_float o1.Pe.dvt_after)
          (Int64.bits_of_float o2.Pe.dvt_after)
     && o1.Pe.saturated = o2.Pe.saturated)

(* Surrogate precedence over the replay cache must be deterministic: once a
   table serves a (vgs, duration, qfg) key, it keeps serving it even though
   the engine holds an exact replay entry for the same key from the
   pre-promotion pulses — and repeated surrogate answers are bit-identical
   (pure interpolation of an immutable table). *)
let test_surrogate_precedence_deterministic () =
  let module Ps = Gnrflash_device.Pulse_surrogate in
  let module Tel = Gnrflash_telemetry.Telemetry in
  let pulse = { Pe.vgs = 15.; duration = 75e-6 } in
  let en = engine () in
  (* the two pre-promotion consults take the exact path and leave a replay
     entry for this key *)
  let exact = check_ok "exact seed" (Pe.apply_pulse en ~qfg:0. pulse) in
  ignore (check_ok "exact replay" (Pe.apply_pulse en ~qfg:0. pulse));
  Tel.reset ();
  Tel.enable ();
  Fun.protect ~finally:(fun () -> Tel.disable (); Tel.reset ()) @@ fun () ->
  let s1 = check_ok "surrogate 1" (Pe.apply_pulse en ~qfg:0. pulse) in
  let s2 = check_ok "surrogate 2" (Pe.apply_pulse en ~qfg:0. pulse) in
  check_true "surrogate served despite replay entry"
    (Tel.For_testing.counter_total "surrogate/hit" >= 2);
  Alcotest.(check int) "replay never consulted" 0
    (Tel.For_testing.counter_total "program_erase/pulse_replay");
  check_true "surrogate answers bit-identical"
    (Int64.equal (Int64.bits_of_float s1.Pe.qfg_after)
       (Int64.bits_of_float s2.Pe.qfg_after));
  (* and the surrogate stays within its table's certified bound of the
     exact answer it shadowed (the build is deterministic, so a direct
     build is the engine's table) *)
  match Ps.build t ~vgs:15. with
  | Error _ -> Alcotest.fail "table build failed"
  | Ok tab ->
    check_true "within certified bound of the shadowed exact answer"
      (Ps.divergence tab ~exact:exact.Pe.qfg_after ~approx:s1.Pe.qfg_after
       <= Ps.For_testing.certified_bound tab)

(* A surrogate build starved by the ambient budget leaves its vgs slot
   empty. The pulse that triggered it gets the exact path's answer, which
   under the same spent budget is the typed [Budget_exhausted] error; the
   next consult, with no budget installed, builds the table. *)
let test_budget_starved_build () =
  let module B = Gnrflash_resilience.Budget in
  let module E = Gnrflash_resilience.Solver_error in
  let module Tel = Gnrflash_telemetry.Telemetry in
  let pulse = { Pe.vgs = 15.; duration = 100e-6 } in
  let en = engine () in
  (* two pre-promotion consults take the exact path *)
  ignore (check_ok "consult 1" (Pe.apply_pulse en ~qfg:0. pulse));
  ignore (check_ok "consult 2" (Pe.apply_pulse en ~qfg:1e-18 pulse));
  check_true "slot not settled before the build" (not (Pe.memoizable en pulse));
  Tel.reset ();
  Tel.enable ();
  Fun.protect ~finally:(fun () -> Tel.disable (); Tel.reset ()) @@ fun () ->
  let starved =
    B.with_budget (B.make ~max_evals:50 ()) (fun () ->
        Pe.apply_pulse en ~qfg:2e-18 pulse)
  in
  Alcotest.(check int) "the third consult attempted a build" 1
    (Tel.For_testing.counter_total "surrogate/build");
  Alcotest.(check int) "and fell back" 1
    (Tel.For_testing.counter_total "surrogate/fallback");
  (match starved with
   | Ok _ -> Alcotest.fail "a spent budget must starve the exact fallback too"
   | Error e -> Alcotest.(check string) "typed budget error" "budget_exhausted" (E.label e));
  check_true "starved build leaves the slot empty" (not (Pe.memoizable en pulse));
  Tel.reset ();
  let served = check_ok "consult 4" (Pe.apply_pulse en ~qfg:2e-18 pulse) in
  Alcotest.(check int) "the next consult builds the table" 1
    (Tel.For_testing.counter_total "surrogate/build");
  Alcotest.(check int) "and serves from it" 1
    (Tel.For_testing.counter_total "surrogate/hit");
  check_true "slot settled" (Pe.memoizable en pulse);
  let exact =
    check_ok "exact" (Pe.apply_pulse (engine ~surrogate:false ()) ~qfg:2e-18 pulse)
  in
  check_close ~tol:1e-2 "served charge matches the exact solve" exact.Pe.qfg_after
    served.Pe.qfg_after

let prop_longer_pulse_more_charge =
  prop "longer pulses move at least as much charge" ~count:6
    QCheck2.Gen.(float_range 1e-9 1e-7)
    (fun d ->
       let en = engine () in
       let o1 = Pe.apply_pulse en ~qfg:0. { Pe.vgs = 15.; duration = d } in
       let o2 = Pe.apply_pulse en ~qfg:0. { Pe.vgs = 15.; duration = d *. 3. } in
       match o1, o2 with
       | Ok a, Ok b -> b.Pe.injected_charge >= a.Pe.injected_charge *. 0.999
       | _ -> false)

let () =
  Alcotest.run "program_erase"
    [
      ( "program_erase",
        [
          case "default pulses" test_default_pulses;
          case "program outcome" test_program_outcome;
          case "erase outcome" test_erase_outcome;
          case "short pulse partial" test_short_pulse_partial;
          case "pulse validation" test_pulse_validation;
          case "full cycle" test_cycle;
          case "saturation idempotence" test_idempotent_saturation;
          case "warm-start counters and parity" test_warm_start_counters;
          case "warm replay bit-identical" test_warm_replay_bit_identical;
          case "surrogate precedence deterministic" test_surrogate_precedence_deterministic;
          case "budget-starved surrogate build" test_budget_starved_build;
          prop_longer_pulse_more_charge;
        ] );
    ]
