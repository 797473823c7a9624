module Ps = Gnrflash_device.Pulse_surrogate
module Pe = Gnrflash_device.Program_erase
module T = Gnrflash_device.Transient
module F = Gnrflash_device.Fgt
module U = Gnrflash_units
module Tel = Gnrflash_telemetry.Telemetry
module Sweep = Gnrflash_parallel.Sweep
open Gnrflash_testing.Testing

let paper = F.paper_default

let mk ~gcr ~xto_nm =
  F.make ~gcr ~xto:(U.metre (xto_nm *. 1e-9)) ~xco:(U.metre 10e-9)
    ~area:(U.square_metre (32e-9 *. 32e-9)) ()

let build_exn ?box device ~vgs = check_sok "surrogate build" (Ps.build ?box device ~vgs)

let exact_final device ~vgs ~duration ~qfg =
  match T.run ~qfg0:qfg device ~vgs ~duration with
  | Ok r -> r.T.qfg_final
  | Error e ->
    Alcotest.failf "exact solve failed: %s"
      (Gnrflash_resilience.Solver_error.to_string e)

(* Three consults of one (vgs, duration, qfg) on an engine: the first two
   take the exact path, the third promotes the vgs and builds its table. *)
let prime e ~qfg pulse =
  for _ = 1 to 3 do
    ignore (check_sok "prime" (Pe.apply_pulse e ~qfg pulse))
  done

let with_counters f =
  Tel.reset ();
  Tel.enable ();
  Fun.protect ~finally:(fun () -> Tel.disable (); Tel.reset ()) f

(* ---------- table basics ---------- *)

let test_build_basics () =
  let tab = build_exn paper ~vgs:15. in
  check_true "enough knots" (Ps.For_testing.knot_count tab >= 8);
  check_close "records vgs" 15. (Ps.For_testing.vgs tab);
  check_true "bound positive" (Ps.For_testing.certified_bound tab > 0.);
  check_true "bound from measurement"
    (Ps.For_testing.certified_bound tab > Ps.For_testing.max_measured_divergence tab);
  (* the paper device at 15 V certifies to well under a percent *)
  check_true
    (Printf.sprintf "bound %.3e below 1e-2" (Ps.For_testing.certified_bound tab))
    (Ps.For_testing.certified_bound tab < 1e-2);
  let lo, hi = Ps.qfg_range tab in
  check_true "range spans the neutral cell" (lo < 0. && hi > 0.);
  (* polarity symmetry of the device carries over to the tables *)
  let te = build_exn paper ~vgs:(-15.) in
  let lo', hi' = Ps.qfg_range te in
  check_close ~tol:1e-6 "mirrored range lo" (-.hi) lo';
  check_close ~tol:1e-6 "mirrored range hi" (-.lo) hi';
  (* both paper tables serve within their bound of an exact solve at fixed
     (charge fraction, duration) points spanning range and durations *)
  List.iter
    (fun (tab, vgs) ->
       let lo, hi = Ps.qfg_range tab in
       List.iter
         (fun (u, duration) ->
            let qfg = lo +. (u *. (hi -. lo)) in
            match Ps.query tab ~qfg ~duration with
            | None -> ()
            | Some r ->
              let exact = exact_final paper ~vgs ~duration ~qfg in
              check_true
                (Printf.sprintf "vgs=%g u=%g duration=%g within bound" vgs u duration)
                (Ps.divergence tab ~exact ~approx:r.Ps.qfg_after
                 <= Ps.For_testing.certified_bound tab))
         [ (0., 1e-6); (0.15, 1e-5); (0.35, 1e-4); (0.5, 3e-4); (0.65, 1e-3);
           (0.85, 1e-2); (1., 1e-5); (0.5, 1e-9); (0.5, 1e-1) ])
    [ (tab, 15.); (te, -15.) ]

let test_query_semantics () =
  let tab = build_exn paper ~vgs:15. in
  let lo, hi = Ps.qfg_range tab in
  check_true "non-positive duration refused"
    (Ps.query tab ~qfg:0. ~duration:0. = None);
  check_true "below range refused"
    (Ps.query tab ~qfg:(lo -. abs_float lo) ~duration:1e-6 = None);
  check_true "above range refused"
    (Ps.query tab ~qfg:(hi +. hi) ~duration:1e-6 = None);
  (* a long pulse saturates; a very short one does not *)
  (match Ps.query tab ~qfg:0. ~duration:1e-1 with
   | Some r -> check_true "long pulse saturates" r.Ps.saturated
   | None -> Alcotest.fail "long pulse unserved");
  match Ps.query tab ~qfg:0. ~duration:1e-9 with
  | Some r -> check_false "1 ns pulse does not saturate" r.Ps.saturated
  | None -> Alcotest.fail "short pulse unserved"

(* ---------- the headline certification property ---------- *)

(* For random operating points inside the paper box (both polarities) the
   served answer must stay within the table's own certified bound of an
   independent exact solve — measured with the table's divergence metric,
   the same function the build used to derive the bound. Operating points
   the surrogate declines (an under-resolved weak-bias trajectory fails to
   build; a duration outrunning an unsaturated table) are fallbacks to the
   exact solver by contract, so they pass trivially. *)
let cert_gen =
  QCheck2.Gen.(
    tup6 bool (float_range 8. 17.) (float_range 0.45 0.6)
      (float_range 5. 9.) (float_range (-9.) (-1.)) (float_range 0. 1.))

let cert_print (neg, v, gcr, xto_nm, logd, u) =
  Printf.sprintf
    "vgs=%s%.6g gcr=%.6g xto=%.6g nm duration=1e%.4g qfg-fraction=%.6g"
    (if neg then "-" else "") v gcr xto_nm logd u

let prop_certified_bound =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:12 ~name:"within certified bound across the box"
       ~print:cert_print cert_gen
       (fun (neg, v, gcr, xto_nm, logd, u) ->
          let vgs = if neg then -.v else v in
          let duration = 10. ** logd in
          let device = mk ~gcr ~xto_nm in
          match Ps.build device ~vgs with
          | Error _ -> true (* unresolvable corner: falls back to exact *)
          | Ok tab ->
            let lo, hi = Ps.qfg_range tab in
            let qfg = lo +. (u *. (hi -. lo)) in
            (match Ps.query tab ~qfg ~duration with
             | None -> true (* out of table coverage: falls back *)
             | Some r ->
               let exact = exact_final device ~vgs ~duration ~qfg in
               Ps.divergence tab ~exact ~approx:r.Ps.qfg_after
               <= Ps.For_testing.certified_bound tab)))

let prop_monotone_in_duration =
  (* PCHIP preserves the trajectory's monotonicity: a longer pulse at the
     same bias moves at least as much charge *)
  let tab = lazy (build_exn paper ~vgs:15.) in
  prop "longer served pulse moves at least as much charge" ~count:40
    QCheck2.Gen.(pair (float_range 0. 1.) (float_range 1. 50.))
    (fun (u, mult) ->
       let tab = Lazy.force tab in
       let lo, hi = Ps.qfg_range tab in
       let qfg = lo +. (u *. (hi -. lo)) in
       let d1 = 1e-6 in
       let d2 = d1 *. mult in
       match Ps.query tab ~qfg ~duration:d1, Ps.query tab ~qfg ~duration:d2 with
       | Some a, Some b ->
         (* programming drives the charge down (electrons in) *)
         b.Ps.qfg_after <= a.Ps.qfg_after +. 1e-25
       | _ -> false)

(* ---------- out-of-domain contract ---------- *)

let bits = Int64.bits_of_float

let assert_bit_identical msg a b =
  check_true msg
    (Int64.equal (bits a.Pe.qfg_after) (bits b.Pe.qfg_after)
     && Int64.equal (bits a.Pe.dvt_after) (bits b.Pe.dvt_after)
     && Bool.equal a.Pe.saturated b.Pe.saturated)

let test_out_of_box_bit_identity () =
  with_counters @@ fun () ->
  let device = mk ~gcr:0.6 ~xto_nm:5. in
  (* three ways out of the box: bias, duration, device geometry *)
  let cases =
    [ ("vgs above box", device, { Pe.vgs = 18.; duration = 100e-6 });
      ("vgs below box", device, { Pe.vgs = 7.5; duration = 100e-6 });
      ("duration below box", device, { Pe.vgs = 15.; duration = 1e-10 });
      ("duration above box", device, { Pe.vgs = 15.; duration = 0.2 });
      ("gcr outside box", mk ~gcr:0.7 ~xto_nm:5., { Pe.vgs = 15.; duration = 100e-6 });
      ("xto outside box", mk ~gcr:0.6 ~xto_nm:9.5, { Pe.vgs = 15.; duration = 100e-6 });
    ]
  in
  List.iter
    (fun (msg, dev, pulse) ->
       let on = check_sok msg (Pe.apply_pulse (Pe.engine dev) ~qfg:0. pulse) in
       let off =
         check_sok msg
           (Pe.apply_pulse (Pe.engine ~surrogate:false dev) ~qfg:0. pulse)
       in
       assert_bit_identical (msg ^ ": bit-identical to exact") on off)
    cases;
  check_true "fallback fired for every out-of-box query"
    (Tel.For_testing.counter_total "surrogate/fallback" >= List.length cases);
  Alcotest.(check int) "no hits out of box" 0 (Tel.For_testing.counter_total "surrogate/hit")

let test_out_of_range_charge_falls_back () =
  with_counters @@ fun () ->
  let device = mk ~gcr:0.6 ~xto_nm:5. in
  let pulse = { Pe.vgs = 15.; duration = 100e-6 } in
  (* prime the table, then query from a charge far outside its range. The
     exact-path engine sees the same pulses, so both carry the same warm
     start into the out-of-range solve. *)
  let on_engine = Pe.engine device in
  let off_engine = Pe.engine ~surrogate:false device in
  prime on_engine ~qfg:0. pulse;
  prime off_engine ~qfg:0. pulse;
  check_true "table built by priming" (Tel.For_testing.counter_total "surrogate/hit" = 1);
  let _, hi = Ps.qfg_range (build_exn device ~vgs:15.) in
  let q_out = 3. *. hi in
  let hits0 = Tel.For_testing.counter_total "surrogate/hit" in
  let on = check_sok "oob charge" (Pe.apply_pulse on_engine ~qfg:q_out pulse) in
  let off =
    check_sok "oob charge exact" (Pe.apply_pulse off_engine ~qfg:q_out pulse)
  in
  assert_bit_identical "out-of-range charge is exact" on off;
  Alcotest.(check int) "no hit for out-of-range charge" hits0
    (Tel.For_testing.counter_total "surrogate/hit");
  check_true "fallback fired" (Tel.For_testing.counter_total "surrogate/fallback" > 0)

let test_box_edges_inside () =
  (* exactly-on-boundary operating points are inside the box, including
     devices *constructed at* a box corner (GCR round-trips through the
     capacitance network) *)
  let corners = [ (0.45, 5.); (0.45, 9.); (0.6, 5.); (0.6, 9.) ] in
  List.iter
    (fun (gcr, xto_nm) ->
       let dev = mk ~gcr ~xto_nm in
       List.iter
         (fun vgs ->
            List.iter
              (fun d ->
                 check_true
                   (Printf.sprintf "edge in box: gcr=%g xto=%g vgs=%g d=%g"
                      gcr xto_nm vgs d)
                   (Ps.in_box dev ~vgs ~duration:d))
              [ 1e-9; 1e-1 ])
         [ 8.; 17.; -8.; -17. ])
    corners;
  (* just past any face is outside *)
  let dev = mk ~gcr:0.6 ~xto_nm:5. in
  check_false "vgs past max" (Ps.in_box dev ~vgs:17.000001 ~duration:1e-6);
  check_false "duration past max" (Ps.in_box dev ~vgs:15. ~duration:0.100001);
  check_false "gcr past max"
    (Ps.in_box (mk ~gcr:0.61 ~xto_nm:5.) ~vgs:15. ~duration:1e-6)

let test_charge_range_edges_served () =
  let tab = build_exn paper ~vgs:15. in
  let lo, hi = Ps.qfg_range tab in
  check_true "exactly q_lo served" (Ps.query tab ~qfg:lo ~duration:1e-6 <> None);
  check_true "exactly q_hi served" (Ps.query tab ~qfg:hi ~duration:1e-6 <> None);
  (* the strong box corner serves right on the duration boundaries too *)
  check_true "duration_min served"
    (Ps.query tab ~qfg:0. ~duration:1e-9 <> None);
  check_true "duration_max served"
    (Ps.query tab ~qfg:0. ~duration:1e-1 <> None)

(* ---------- cache policy and counters ---------- *)

let test_promotion_policy () =
  with_counters @@ fun () ->
  let device = mk ~gcr:0.6 ~xto_nm:5. in
  let pulse = { Pe.vgs = 15.; duration = 100e-6 } in
  (* the first two requests for a vgs fall back, the third builds *)
  let e = Pe.engine device in
  let q = ref 0.123e-17 in
  for _ = 1 to 2 do
    ignore (check_sok "cold" (Pe.apply_pulse e ~qfg:!q pulse));
    q := !q +. 1e-19 (* distinct keys: exact replay must not mask the policy *)
  done;
  Alcotest.(check int) "no build before promotion" 0
    (Tel.For_testing.counter_total "surrogate/build");
  Alcotest.(check int) "both pre-promotion pulses fell back" 2
    (Tel.For_testing.counter_total "surrogate/fallback");
  ignore (check_sok "promoted" (Pe.apply_pulse e ~qfg:!q pulse));
  Alcotest.(check int) "promotion built one table" 1
    (Tel.For_testing.counter_total "surrogate/build");
  Alcotest.(check int) "and served the promoting pulse" 1
    (Tel.For_testing.counter_total "surrogate/hit");
  check_true "build span recorded"
    (match Tel.For_testing.span_stat "surrogate/build" with
     | Some s -> s.Tel.calls = 1 && s.Tel.total_s >= 0.
     | None ->
       (* the span is keyed under the enclosing pulse span *)
       List.exists
         (fun (k, _) ->
            String.length k >= 15
            && String.sub k (String.length k - 15) 15 = "surrogate/build")
         (Tel.snapshot ()).Tel.spans)

let test_opt_out_is_silent () =
  with_counters @@ fun () ->
  let device = mk ~gcr:0.6 ~xto_nm:5. in
  let pulse = { Pe.vgs = 15.; duration = 100e-6 } in
  let e = Pe.engine ~surrogate:false device in
  for _ = 1 to 3 do
    ignore (check_sok "opt-out" (Pe.apply_pulse e ~qfg:0. pulse))
  done;
  (* out of the box too: an opted-out engine does not count a fallback *)
  ignore (check_sok "opt-out, vgs above box"
            (Pe.apply_pulse e ~qfg:0. { pulse with Pe.vgs = 18. }));
  Alcotest.(check int) "no hits" 0 (Tel.For_testing.counter_total "surrogate/hit");
  Alcotest.(check int) "no fallbacks" 0 (Tel.For_testing.counter_total "surrogate/fallback");
  Alcotest.(check int) "no builds" 0 (Tel.For_testing.counter_total "surrogate/build")

(* ---------- golden pins (pattern from test_figures.ml) ---------- *)

(* Fig 5 saturation time through the surrogate. The exact dense-output pin
   is 2.97320829404940892e-04 s (test_figures.ml, 1e-9 rel); the surrogate
   reads the event time off the tabulated trajectory and lands at
   2.97320727771599610e-04 s — 3.4e-7 relative away, well inside the
   table's certified bound. Pinned: 1e-9 against its own value (regression
   lock) and 1e-5 against the exact pin (accuracy contract). *)
let test_fig5_tsat_pin () =
  let tab = build_exn paper ~vgs:15. in
  match Ps.For_testing.saturation_time tab ~qfg:0. with
  | None -> Alcotest.fail "surrogate tsat missing"
  | Some ts ->
    let pin_sur = 2.97320727771599610e-04 in
    let pin_exact = 2.97320829404940892e-04 in
    check_true
      (Printf.sprintf "surrogate tsat %.17e within 1e-9 of pin %.17e" ts pin_sur)
      (abs_float (ts -. pin_sur) /. pin_sur <= 1e-9);
    check_true
      (Printf.sprintf "surrogate tsat %.17e within 1e-5 of exact pin" ts)
      (abs_float (ts -. pin_exact) /. pin_exact <= 1e-5)

(* Fig 5 time-to-threshold-shift (2 V target). Exact event localization
   measures 9.94552234596851787e-09 s; the surrogate's trajectory-time
   difference lands at 9.94546668465619562e-09 s (5.6e-6 relative apart —
   the event charge sits between accepted steps, so agreement is bounded by
   the table resolution, not the certified charge bound). Pins: each side
   1e-9 against its own value, 1e-4 cross-tolerance. *)
let test_fig5_ttts_pin () =
  let pin_exact = 9.94552234596851787e-09 in
  let pin_sur = 9.94546668465619562e-09 in
  (match T.time_to_threshold_shift paper ~vgs:15. ~dvt:2. ~max_time:1. with
   | Ok (Some tt) ->
     check_true
       (Printf.sprintf "exact ttts %.17e within 1e-9 of pin" tt)
       (abs_float (tt -. pin_exact) /. pin_exact <= 1e-9)
   | _ -> Alcotest.fail "exact ttts failed");
  let tab = build_exn paper ~vgs:15. in
  let q2 = F.qfg_for_threshold_shift paper ~dvt:2. in
  match Ps.For_testing.time_to_charge tab ~qfg0:0. ~qfg1:q2 with
  | None -> Alcotest.fail "surrogate ttts out of range"
  | Some tt ->
    check_true
      (Printf.sprintf "surrogate ttts %.17e within 1e-9 of pin" tt)
      (abs_float (tt -. pin_sur) /. pin_sur <= 1e-9);
    check_true "surrogate ttts within 1e-4 of the exact pin"
      (abs_float (tt -. pin_exact) /. pin_exact <= 1e-4)

(* Fig 6–9 program/erase windows at the box corners, surrogate on vs off,
   after the paper's default 1 ms pulses. Exact (surrogate-off) values are
   pinned at 1e-9 relative; the surrogate-on window must agree within
   1e-3 V absolute — generous against the certified charge bound (3.6e-3
   relative of a ~2e-17 C swing is ~0.08 V through CFC, but the operative
   divergence is far smaller: saturated corners land on the event charge,
   and the measured disagreement across corners is ≤ 5e-7 V at 5 nm and
   ≤ 5e-6 V relative at 9 nm). *)
let corner_window_pins =
  [ (0.45, 5., 7.76693787492818188e+00);
    (0.60, 5., 1.33252034061961773e+01);
    (0.45, 9., -1.00297753210103757e-02);
    (0.60, 9., 2.00207168207523756e+00);
  ]

(* Exact: a cold engine (each polarity's first solve is cold). Surrogate:
   two warm-up consults per polarity first, so the measured pulses are the
   table-building third ones. *)
let window ~surrogate dev =
  let en = Pe.engine ~surrogate dev in
  let program ~qfg = Pe.apply_pulse en ~qfg Pe.default_program_pulse
  and erase ~qfg = Pe.apply_pulse en ~qfg Pe.default_erase_pulse in
  if surrogate then
    for _ = 1 to 2 do
      ignore (check_sok "warm-up program" (program ~qfg:0.));
      ignore (check_sok "warm-up erase" (erase ~qfg:0.))
    done;
  let p = check_sok "program" (program ~qfg:0.) in
  let e = check_sok "erase" (erase ~qfg:p.Pe.qfg_after) in
  p.Pe.dvt_after -. e.Pe.dvt_after

let test_fig6_9_window_pins () =
  List.iter
    (fun (gcr, xto_nm, pin) ->
       let dev = mk ~gcr ~xto_nm in
       let off = window ~surrogate:false dev in
       let on = window ~surrogate:true dev in
       check_true
         (Printf.sprintf "exact window gcr=%g xto=%g: %.17e vs pin %.17e" gcr
            xto_nm off pin)
         (abs_float (off -. pin) /. abs_float pin <= 1e-9);
       check_true
         (Printf.sprintf
            "surrogate window gcr=%g xto=%g within 1e-3 V of exact (%.3e)" gcr
            xto_nm (abs_float (on -. off)))
         (abs_float (on -. off) <= 1e-3))
    corner_window_pins

(* ---------- composition with warm start and parallelism ---------- *)

let test_jobs_invariance () =
  (* a surrogate-served workload split across domains: each element builds
     its own device and engine and runs a short train; results must be
     bit-identical for any job count *)
  let configs =
    Array.init 8 (fun i ->
        let gcr = 0.45 +. (0.15 *. float_of_int (i mod 4) /. 3.) in
        let xto_nm = if i < 4 then 5. else 6. in
        (gcr, xto_nm))
  in
  let run_one (gcr, xto_nm) =
    let e = Pe.engine (mk ~gcr ~xto_nm) in
    let q = ref 0. in
    let out = ref [] in
    for k = 1 to 6 do
      let vgs = if k mod 2 = 1 then 15. else -15. in
      match Pe.apply_pulse e ~qfg:!q { Pe.vgs = vgs; duration = 100e-6 } with
      | Ok o ->
        q := o.Pe.qfg_after;
        out := bits o.Pe.qfg_after :: !out
      | Error e ->
        Alcotest.failf "train failed: %s"
          (Gnrflash_resilience.Solver_error.to_string e)
    done;
    !out
  in
  let results jobs = Sweep.map ~jobs ~serial_cutoff:0. run_one configs in
  let r1 = results 1 in
  List.iter
    (fun jobs ->
       let rj = results jobs in
       check_true
         (Printf.sprintf "jobs=%d bit-identical to serial" jobs)
         (rj = r1))
    [ 2; 4 ]

let () =
  Alcotest.run "pulse_surrogate"
    [
      ( "pulse_surrogate",
        [
          case "build basics" test_build_basics;
          case "query semantics" test_query_semantics;
          prop_certified_bound;
          prop_monotone_in_duration;
          case "out-of-box bit identity" test_out_of_box_bit_identity;
          case "out-of-range charge falls back" test_out_of_range_charge_falls_back;
          case "box edges inside" test_box_edges_inside;
          case "charge-range edges served" test_charge_range_edges_served;
          case "promotion policy" test_promotion_policy;
          case "opt-out is silent" test_opt_out_is_silent;
          case "fig5 tsat pin (surrogate)" test_fig5_tsat_pin;
          case "fig5 ttts pin (surrogate vs exact)" test_fig5_ttts_pin;
          case "fig6-9 corner window pins" test_fig6_9_window_pins;
          case "jobs invariance" test_jobs_invariance;
        ] );
    ]
