module O = Gnrflash_numerics.Ode
open Gnrflash_testing.Testing

(* the numerics/device solvers under test return typed solver errors *)
let check_ok msg r = check_sok msg r
let check_error msg r = ignore (check_serr msg r)

let decay _t y = -.y

let last (tr : O.trajectory) = tr.O.states.(Array.length tr.O.states - 1)

let test_rkf45_decay () =
  let tr = check_ok "rkf45" (O.For_testing.rkf45 ~rtol:1e-10 ~f:decay ~t0:0. ~y0:1. ~t1:2. ()) in
  check_close ~tol:1e-8 "e^-2" (exp (-2.)) (last tr)

let test_rkf45_rejects_bad_range () =
  check_error "t1 <= t0" (O.For_testing.rkf45 ~f:decay ~t0:1. ~y0:1. ~t1:0. ())

let test_rkf45_times_monotone () =
  let tr = check_ok "rkf45" (O.For_testing.rkf45 ~f:decay ~t0:0. ~y0:1. ~t1:1. ()) in
  let ok = ref true in
  for i = 0 to Array.length tr.O.times - 2 do
    if tr.O.times.(i + 1) <= tr.O.times.(i) then ok := false
  done;
  check_true "strictly increasing times" !ok

let test_event_detection () =
  (* y' = 1, event at y = 0.5 -> t = 0.5 *)
  let f _t _y = 1. in
  let event _t y = y -. 0.5 in
  let r =
    check_ok "event" (O.For_testing.rkf45_event ~f ~event ~t0:0. ~y0:0. ~t1:2. ())
  in
  (match r.O.For_testing.event_time with
   | Some t -> check_close ~tol:1e-6 "event time" 0.5 t
   | None -> Alcotest.fail "event not detected");
  match r.O.For_testing.event_state with
  | Some y -> check_close ~tol:1e-5 "event state" 0.5 y
  | None -> Alcotest.fail "no event state"

let test_event_decay_threshold () =
  (* e^{-t} crosses 0.1 at t = ln 10 *)
  let event _t y = y -. 0.1 in
  let r =
    check_ok "event"
      (O.For_testing.rkf45_event ~rtol:1e-10 ~f:decay ~event ~t0:0. ~y0:1. ~t1:10. ())
  in
  match r.O.For_testing.event_time with
  | Some t -> check_close ~tol:1e-5 "ln 10" (log 10.) t
  | None -> Alcotest.fail "event not detected"

let test_event_none () =
  let event _t y = y +. 1. in
  (* never crosses *)
  let r =
    check_ok "event" (O.For_testing.rkf45_event ~f:decay ~event ~t0:0. ~y0:1. ~t1:1. ())
  in
  check_true "no event" (r.O.For_testing.event_time = None)

let test_nan_region_recovery () =
  (* f produces NaN for y > 1.5; solution stays below, so large trial steps
     must be rejected rather than aborting *)
  let f _t y = if y > 1.5 then nan else 0.2 in
  let tr = check_ok "nan recovery" (O.For_testing.rkf45 ~h0:100. ~f ~t0:0. ~y0:0. ~t1:1. ()) in
  check_close ~tol:1e-6 "linear growth" 0.2 (last tr)

let test_event_exact_zero_landing () =
  (* regression: a step function hits g = 0. exactly at an accepted step;
     the old strict [g0 * g1 < 0.] test never saw a sign change and the
     crossing was silently missed *)
  let f _t _y = 1. in
  let event _t y = if y >= 0.5 then 0. else -1. in
  let r =
    check_ok "event" (O.For_testing.rkf45_event ~f ~event ~t0:0. ~y0:0. ~t1:2. ())
  in
  (match r.O.For_testing.event_time with
   | Some t -> check_in "crossing detected at a step past y = 0.5" ~lo:0.5 ~hi:2. t
   | None -> Alcotest.fail "exact-zero landing missed");
  match r.O.For_testing.event_state with
  | Some y -> check_true "state past the threshold" (y >= 0.5)
  | None -> Alcotest.fail "no event state"

let test_event_bisection_early_exit () =
  (* regression: the crossing bisection ran a fixed 60 iterations (each one
     a 16-step RK4 re-integration) long after the bracket was at double
     precision; it must now stop at the relative time tolerance *)
  let module Tel = Gnrflash_telemetry.Telemetry in
  Tel.reset ();
  Tel.enable ();
  Fun.protect ~finally:(fun () -> Tel.disable (); Tel.reset ()) @@ fun () ->
  let event _t y = y -. 0.1 in
  let r =
    check_ok "event"
      (O.For_testing.rkf45_event ~rtol:1e-10 ~f:decay ~event ~t0:0. ~y0:1. ~t1:10. ())
  in
  (match r.O.For_testing.event_time with
   | Some t -> check_close ~tol:1e-5 "ln 10" (log 10.) t
   | None -> Alcotest.fail "event not detected");
  Alcotest.(check int) "one crossing" 1 (Tel.For_testing.counter_total "ode/event_crossing");
  let iters = Tel.For_testing.counter_total "ode/event_bisect_iter" in
  check_true "bisection ran" (iters > 0);
  check_true "bisection stopped before the 60-iteration cap" (iters < 60)

let test_infinite_rhs_recovery () =
  (* companion to the NaN test: an infinite (not NaN) trial state must also
     be rejected by the finiteness guard rather than accepted as garbage.
     Relaxation toward 1.5 never crosses the threshold, but the first
     large-h trial's intermediate RK stages overshoot into the region where
     f blows up to infinity. *)
  let f _t y = if y > 1.5 then infinity else 4. *. (1.5 -. y) in
  let module Tel = Gnrflash_telemetry.Telemetry in
  Tel.reset ();
  Tel.enable ();
  Fun.protect ~finally:(fun () -> Tel.disable (); Tel.reset ()) @@ fun () ->
  let tr =
    check_ok "inf recovery" (O.For_testing.rkf45 ~h0:1. ~f ~t0:0. ~y0:0. ~t1:1. ())
  in
  check_close ~tol:1e-6 "relaxation endpoint" (1.5 *. (1. -. exp (-4.))) (last tr);
  check_true "non-finite trial steps were shrunk"
    (Tel.For_testing.counter_total "ode/step_nan_shrink" > 0);
  Array.iter
    (fun y -> check_true "trajectory stays finite" (Float.is_finite y))
    tr.O.states

let test_max_steps_typed () =
  let module E = Gnrflash_resilience.Solver_error in
  let e =
    check_serr "max steps"
      (O.For_testing.rkf45 ~max_steps:3 ~f:decay ~t0:0. ~y0:1. ~t1:1e6 ())
  in
  match e.E.kind with
  | E.Max_steps { steps; t } ->
    check_true "cap recorded" (steps >= 3);
    check_in "stopped mid-integration" ~lo:0. ~hi:1e6 t
  | _ -> Alcotest.failf "expected Max_steps, got %s" (E.to_string e)

let prop_rkf45_linear_growth =
  prop "y' = a integrates to a*t" QCheck2.Gen.(float_range (-10.) 10.) (fun a ->
      let f _t _y = a in
      match O.For_testing.rkf45 ~f ~t0:0. ~y0:0. ~t1:3. () with
      | Ok tr ->
        let y = last tr in
        abs_float (y -. (3. *. a)) <= 1e-6 *. (1. +. abs_float (3. *. a))
      | Error _ -> false)

(* ---------- dense output ---------- *)

(* The dense output as programs reach it: [integrate] locates an event by
   bisection on the step's continuous extension and reads the state at the
   event time from it. An event at [t = s] therefore samples the
   interpolant at [s] (to the bisection's 1e-12 relative bracket). *)
let dense_at ?rtol ?atol f ~t0 ~y0 ~t1 s =
  let io = O.io () in
  let rhs () = io.O.dy <- f io.O.t io.O.y in
  let event () = io.O.g <- io.O.t -. s in
  match
    O.integrate ?rtol ?atol ~record:false io ~rhs ~event:(Some event) ~t0 ~y0 ~t1 ()
  with
  | Ok { O.t_event = Some t; y_event = Some y; _ } -> Some (t, y)
  | Ok _ | Error _ -> None

(* The interpolant must agree with the analytic solution at arbitrary
   off-step times to the stepper's own accuracy — it is 4th/5th order, not
   a secant through step endpoints. *)
let test_dense_decay_analytic () =
  for i = 1 to 95 do
    let s = 2. *. float_of_int i /. 96. in
    match dense_at ~rtol:1e-8 ~atol:1e-12 decay ~t0:0. ~y0:1. ~t1:2. s with
    | None -> Alcotest.failf "no dense sample at t=%.3f" s
    | Some (t, y) ->
      let exact = exp (-.t) in
      check_true
        (Printf.sprintf "dense decay @ t=%.3f" t)
        (abs_float (y -. exact) <= 1e-6 *. (1. +. exact))
  done

(* Property: the dense interpolant agrees with a from-scratch re-integration
   stopped exactly at the sample time, over random stiffness-free linear
   systems y' = a - b*y (the Fig 4/5 charging equation's shape). *)
let prop_dense_matches_reintegration =
  prop "dense output matches re-integration"
    QCheck2.Gen.(
      triple (float_range 0.1 5.) (float_range 0.1 5.) (float_range 0.1 1.9))
    (fun (a, b, t_mid) ->
       let f _t y = a -. (b *. y) in
       match dense_at ~rtol:1e-8 ~atol:1e-14 f ~t0:0. ~y0:0. ~t1:2. t_mid with
       | None -> false
       | Some (t, y) ->
         (match
            O.For_testing.rkf45 ~rtol:1e-11 ~atol:1e-16 ~f ~t0:0. ~y0:0. ~t1:t ()
          with
          | Error _ -> false
          | Ok tr ->
            let y_ref = last tr in
            abs_float (y -. y_ref) <= 1e-6 *. (1. +. abs_float y_ref)))

(* FSAL bookkeeping: one eval seeds k1, then exactly 6 evals per trial step,
   +1 re-seed after every NaN shrink (the cached slope is poisoned). *)
let test_fsal_eval_count () =
  let module Tel = Gnrflash_telemetry.Telemetry in
  Tel.reset ();
  Tel.enable ();
  Fun.protect ~finally:(fun () -> Tel.disable (); Tel.reset ()) @@ fun () ->
  let _ = check_ok "run" (O.For_testing.rkf45 ~f:decay ~t0:0. ~y0:1. ~t1:2. ()) in
  let trials =
    Tel.For_testing.counter_total "ode/step_accepted"
    + Tel.For_testing.counter_total "ode/step_rejected"
    + Tel.For_testing.counter_total "ode/step_nan_shrink"
  in
  Alcotest.(check int) "6 evals per trial + 1 seed"
    ((6 * trials) + 1 + Tel.For_testing.counter_total "ode/step_nan_shrink")
    (Tel.For_testing.counter_total "ode/rhs_eval")

(* Allocation pin (native code only: bytecode boxes every float). The
   driver keeps its state and stages unboxed, so a run allocates only
   - per RHS evaluation, the boxes of [f]'s two arguments and of its
     result (6 words), and
   - per accepted step, its trajectory slot: one float in each of the two
     buffers, which double as they fill and are trimmed once at the end
     (at most 5 words per buffer, amortized),
   plus a fixed setup cost. A per-stage array or tuple, or a per-step
   closure, would add words per evaluation and fail this bound. *)
let test_rkf45_allocation () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  List.iter
    (fun rtol ->
       let evals = ref 0 in
       let f _t y =
         incr evals;
         -.y
       in
       let run () = O.For_testing.rkf45 ~rtol ~f ~t0:0. ~y0:1. ~t1:2. () in
       ignore (run ());
       evals := 0;
       let before = Gc.minor_words () in
       let r = run () in
       let words = Gc.minor_words () -. before in
       let slots = Array.length (check_ok "run" r).O.times in
       let bound = float_of_int ((6 * !evals) + (10 * slots) + 128) in
       check_true
         (Printf.sprintf "rtol %g: %.0f words <= %.0f (%d evals, %d slots)" rtol words
            bound !evals slots)
         (words <= bound))
    [ 1e-4; 1e-8; 1e-12 ]

let () =
  Alcotest.run "ode"
    [
      ( "ode",
        [
          case "rkf45 decay" test_rkf45_decay;
          case "rkf45 bad range" test_rkf45_rejects_bad_range;
          case "rkf45 monotone times" test_rkf45_times_monotone;
          case "event: linear crossing" test_event_detection;
          case "event: decay threshold" test_event_decay_threshold;
          case "event: none" test_event_none;
          case "event: exact-zero landing" test_event_exact_zero_landing;
          case "event: bisection early exit" test_event_bisection_early_exit;
          case "NaN trial step recovery" test_nan_region_recovery;
          case "infinite trial step recovery" test_infinite_rhs_recovery;
          case "typed Max_steps" test_max_steps_typed;
          case "dense output: analytic decay" test_dense_decay_analytic;
          case "FSAL eval accounting" test_fsal_eval_count;
          case "rkf45 allocates only boxes and trajectory slots" test_rkf45_allocation;
          prop_rkf45_linear_growth;
          prop_dense_matches_reintegration;
        ] );
    ]
