module Tel = Gnrflash_telemetry.Telemetry
module Err = Gnrflash_resilience.Solver_error
module Budget = Gnrflash_resilience.Budget

type error = Err.t

type trajectory = {
  times : float array;
  states : float array;
}

(* ---------- Dormand–Prince 5(4) with FSAL and dense output ---------- *)

(* Butcher tableau of the DOPRI5 pair (Dormand & Prince 1980, the RKDP
   coefficients of Hairer/Nørsett/Wanner DOPRI5). The 7th stage is evaluated
   at (t+h, y_new) so an accepted step's k7 IS the next step's k1 — "first
   same as last" — making the effective cost 6 RHS evaluations per trial
   plus a single extra evaluation at the start of the integration (and after
   a non-finite trial, whose cached slope may itself be poisoned). *)
let a21 = 1. /. 5.

let a31 = 3. /. 40.
and a32 = 9. /. 40.

let a41 = 44. /. 45.
and a42 = -56. /. 15.
and a43 = 32. /. 9.

let a51 = 19372. /. 6561.
and a52 = -25360. /. 2187.
and a53 = 64448. /. 6561.
and a54 = -212. /. 729.

let a61 = 9017. /. 3168.
and a62 = -355. /. 33.
and a63 = 46732. /. 5247.
and a64 = 49. /. 176.
and a65 = -5103. /. 18656.

(* 5th-order solution weights (b7 = 0; stage 7 only feeds the error
   estimate and the dense output) *)
let b1 = 35. /. 384.
and b3 = 500. /. 1113.
and b4 = 125. /. 192.
and b5 = -2187. /. 6784.
and b6 = 11. /. 84.

(* embedded 4th-order weights *)
let bh1 = 5179. /. 57600.
and bh3 = 7571. /. 16695.
and bh4 = 393. /. 640.
and bh5 = -92097. /. 339200.
and bh6 = 187. /. 2100.
and bh7 = 1. /. 40.

(* dense-output coefficients of the pair's native 4th-order continuous
   extension (Hairer's rcont5 weights) *)
let d1 = -12715105075. /. 11282082432.
and d3 = 87487479700. /. 32700410799.
and d4 = -10690763975. /. 1880347072.
and d5 = 701980252875. /. 199316789632.
and d6 = -1453857185. /. 822651844.
and d7 = 69997945. /. 29380423.

(* Stdlib's [min]/[max] with the same NaN behaviour, but monomorphic: the
   polymorphic ones box both floats and call the generic compare. *)
let[@inline] fmin (a : float) b = if a <= b then a else b
let[@inline] fmax (a : float) b = if a >= b then a else b

(* The continuous extension over one accepted step (Hairer's rcont5 form),
   evaluated without any further RHS work. The coefficients are set only
   when a step brackets an event; each evaluation is counted under
   [ode/dense_eval]. *)
type dense = {
  mutable t_old : float;
  mutable h : float;
  mutable c1 : float;
  mutable c2 : float;
  mutable c3 : float;
  mutable c4 : float;
  mutable c5 : float;
}

let[@inline] set_dense d ~t_old ~h ~y_old ~y_new ~k1 ~k3 ~k4 ~k5 ~k6 ~k7 =
  let ydiff = y_new -. y_old in
  let bspl = (h *. k1) -. ydiff in
  d.t_old <- t_old;
  d.h <- h;
  d.c1 <- y_old;
  d.c2 <- ydiff;
  d.c3 <- bspl;
  d.c4 <- ydiff -. (h *. k7) -. bspl;
  d.c5 <-
    h
    *. ((d1 *. k1) +. (d3 *. k3) +. (d4 *. k4) +. (d5 *. k5) +. (d6 *. k6)
        +. (d7 *. k7))

let[@inline] eval_dense d t =
  Tel.count "ode/dense_eval";
  let theta = (t -. d.t_old) /. d.h in
  d.c1
  +. (theta
      *. (d.c2 +. ((1. -. theta) *. (d.c3 +. (theta *. (d.c4 +. ((1. -. theta) *. d.c5)))))))

(* Accepted (t, y) pairs, grown by doubling and trimmed once at the end. *)
type buffer = { mutable bt : float array; mutable by : float array; mutable len : int }

let grow a n =
  let b = Array.make (2 * n) 0. in
  Array.blit a 0 b 0 n;
  b

let[@inline] push b t y =
  let n = b.len in
  if n = Array.length b.bt then begin
    b.bt <- grow b.bt n;
    b.by <- grow b.by n
  end;
  Array.unsafe_set b.bt n t;
  Array.unsafe_set b.by n y;
  b.len <- n + 1

type io = {
  mutable t : float;
  mutable y : float;
  mutable dy : float;
  mutable g : float;
}

let io () = { t = 0.; y = 0.; dy = 0.; g = 0. }

type solution = {
  points : trajectory;
  y_final : float;
  h_first : float option;
  t_event : float option;
  y_event : float option;
}

(* Bisection for the event time stops when the bracket is this small
   relative to the step interval — continuing to the fixed 60 iterations
   would churn dense-output evaluations well past double precision. *)
let event_time_rtol = 1e-12

let no_trajectory = { times = [||]; states = [||] }

(* The one adaptive driver behind [integrate] and the [For_testing]
   oracles [rkf45] and [rkf45_event]. The right-hand side and the event
   are [unit -> unit] closures over the flat float record [io]: the driver
   writes the evaluation point into [io.t] and [io.y] and reads [io.dy]
   (or [io.g]) back, so no float crosses a closure call. The state, the
   step and the seven stages live in unboxed locals: a trial step
   allocates nothing, and an accepted step adds only its trajectory slot
   when [record] asks for one. [event], when given, stops the integration
   at its first sign change (or exact zero) on an accepted step. The solver name
   stays "Ode.rkf45" in typed errors: it is the stable identifier the
   resilience layer and its tests key on. A step shrunk below [h_min]
   fails the integration. *)
let h_min = 1e-300

let drive ?(rtol = 1e-8) ?(atol = 1e-12) ?h0 ?(max_steps = 200_000) ~record io
    ~rhs ~event ~t0 ~y0 ~t1 () =
  let solver = "Ode.rkf45" in
  if t1 <= t0 then
    Error (Err.make ~solver (Err.Invalid_input "t1 <= t0"))
  else begin
    (* Each trial step costs exactly 6 RHS evaluations thanks to FSAL (plus
       one to seed the first step, and one re-seed after every non-finite
       trial); counting at the wrapped callable keeps the bookkeeping honest
       even if the tableau changes. Evaluations are charged to the ambient
       budget. *)
    let eval () =
      Tel.count "ode/rhs_eval";
      Budget.note_evals 1;
      rhs ()
    in
    let tr =
      if record then { bt = Array.make 16 0.; by = Array.make 16 0.; len = 0 }
      else { bt = [||]; by = [||]; len = 0 }
    in
    if record then push tr t0 y0;
    (* the points a recorded trajectory would hold: how many, the second
       one's time (for [h_first]) and the last one's state *)
    let points = ref 1 and t_second = ref t0 and y_last = ref y0 in
    let d = { t_old = 0.; h = 1.; c1 = 0.; c2 = 0.; c3 = 0.; c4 = 0.; c5 = 0. } in
    let g0 =
      ref
        (match event with
         | Some ev ->
           io.t <- t0;
           io.y <- y0;
           ev ();
           io.g
         | None -> 0.)
    in
    let event_time = ref None and event_state = ref None in
    let h = ref (match h0 with Some h -> h | None -> (t1 -. t0) /. 100.) in
    let t = ref t0 and y = ref y0 in
    (* FSAL slope cache: f(!t, !y). Invalidated whenever a trial goes
       non-finite, so a non-finite slope cannot pin the integration in
       the shrink loop forever. *)
    let k1 = ref 0. and k1_valid = ref false in
    let steps = ref 0 in
    let err = ref None in
    let finished = ref false in
    while (not !finished) && Option.is_none !err do
      match Budget.check ~solver () with
      | Error e -> err := Some e
      | Ok () ->
        if !steps > max_steps then
          err := Some (Err.make ~solver (Err.Max_steps { steps = !steps; t = !t }))
        else begin
          incr steps;
          if !t +. !h > t1 then h := t1 -. !t;
          if not !k1_valid then begin
            io.t <- !t;
            io.y <- !y;
            eval ();
            k1 := io.dy;
            k1_valid := true
          end;
          let tc = !t and yc = !y and hc = !h and k1c = !k1 in
          io.t <- tc +. (hc /. 5.);
          io.y <- yc +. (hc *. a21 *. k1c);
          eval ();
          let k2 = io.dy in
          io.t <- tc +. (3. *. hc /. 10.);
          io.y <- yc +. (hc *. ((a31 *. k1c) +. (a32 *. k2)));
          eval ();
          let k3 = io.dy in
          io.t <- tc +. (4. *. hc /. 5.);
          io.y <- yc +. (hc *. ((a41 *. k1c) +. (a42 *. k2) +. (a43 *. k3)));
          eval ();
          let k4 = io.dy in
          io.t <- tc +. (8. *. hc /. 9.);
          io.y <-
            yc +. (hc *. ((a51 *. k1c) +. (a52 *. k2) +. (a53 *. k3) +. (a54 *. k4)));
          eval ();
          let k5 = io.dy in
          io.t <- tc +. hc;
          io.y <-
            yc
            +. (hc
                *. ((a61 *. k1c) +. (a62 *. k2) +. (a63 *. k3) +. (a64 *. k4)
                    +. (a65 *. k5)));
          eval ();
          let k6 = io.dy in
          let y_new =
            yc
            +. (hc
                *. ((b1 *. k1c) +. (b3 *. k3) +. (b4 *. k4) +. (b5 *. k5) +. (b6 *. k6)))
          in
          io.t <- tc +. hc;
          io.y <- y_new;
          eval ();
          let k7 = io.dy in
          let y_4th =
            yc
            +. (hc
                *. ((bh1 *. k1c) +. (bh3 *. k3) +. (bh4 *. k4) +. (bh5 *. k5)
                    +. (bh6 *. k6) +. (bh7 *. k7)))
          in
          let sc = atol +. (rtol *. fmax (abs_float yc) (abs_float y_new)) in
          let e = (y_new -. y_4th) /. sc in
          let en = sqrt (e *. e) in
          (* A NaN error norm alone would miss an infinite state, letting the
             integrator accept garbage. *)
          if Float.is_nan en || not (Float.is_finite y_new) then begin
            (* the trial step left the region where f is finite: shrink hard *)
            Tel.count "ode/step_nan_shrink";
            k1_valid := false;
            h := hc /. 10.;
            if !h < h_min then
              err := Some (Err.make ~solver (Err.Nan_region { at = tc }))
          end
          else if en <= 1. then begin
            Tel.count "ode/step_accepted";
            let t_new = tc +. hc in
            (* the accepted point: (t_new, y_new), or the event's *)
            let t_pt = ref t_new and y_pt = ref y_new in
            (match event with
             | None -> ()
             | Some ev ->
               io.t <- t_new;
               io.y <- y_new;
               ev ();
               let g1 = io.g in
               if Float.equal g1 0. then begin
                 (* The event function lands exactly on zero at the accepted
                    step: that IS the crossing (step functions like the
                    saturation imbalance do return exact 0./-1. values). *)
                 Tel.count "ode/event_crossing";
                 event_time := Some t_new;
                 event_state := Some y_new;
                 finished := true
               end
               else if !g0 *. g1 < 0. then begin
                 (* Locate the crossing by bisection on the step's dense
                    output — pure polynomial evaluation, no RHS work. *)
                 Tel.count "ode/event_crossing";
                 set_dense d ~t_old:tc ~h:hc ~y_old:yc ~y_new ~k1:k1c ~k3 ~k4 ~k5 ~k6 ~k7;
                 let lo = ref tc and hi = ref t_new in
                 let width_tol =
                   event_time_rtol *. (abs_float t_new +. abs_float tc +. 1e-300)
                 in
                 let iters = ref 0 in
                 while !iters < 60 && !hi -. !lo > width_tol do
                   incr iters;
                   Tel.count "ode/event_bisect_iter";
                   let mid = 0.5 *. (!lo +. !hi) in
                   io.t <- mid;
                   io.y <- eval_dense d mid;
                   ev ();
                   if !g0 *. io.g <= 0. then hi := mid else lo := mid
                 done;
                 let t_ev = 0.5 *. (!lo +. !hi) in
                 let y_ev = if t_ev >= t_new then y_new else eval_dense d t_ev in
                 event_time := Some t_ev;
                 event_state := Some y_ev;
                 t_pt := t_ev;
                 y_pt := y_ev;
                 finished := true
               end
               else g0 := g1);
            if record then push tr !t_pt !y_pt;
            incr points;
            if !points = 2 then t_second := !t_pt;
            y_last := !y_pt;
            t := t_new;
            y := y_new;
            k1 := k7;
            if !t >= t1 -. (1e-15 *. (abs_float t1 +. 1.)) then finished := true;
            let factor = if Float.equal en 0. then 4. else fmin 4. (0.9 *. (en ** (-0.2))) in
            h := hc *. factor
          end
          else begin
            Tel.count "ode/step_rejected";
            let factor = fmax 0.1 (0.9 *. (en ** (-0.25))) in
            h := hc *. factor;
            if !h < h_min then
              err := Some (Err.make ~solver (Err.Step_underflow { t = tc; h = !h }))
          end
        end
    done;
    match !err with
    | Some e -> Error e
    | None ->
      let n = tr.len in
      Ok
        {
          points =
            (if record then { times = Array.sub tr.bt 0 n; states = Array.sub tr.by 0 n }
             else no_trajectory);
          y_final = !y_last;
          h_first = (if !points >= 2 then Some (!t_second -. t0) else None);
          t_event = !event_time;
          y_event = !event_state;
        }
  end

let integrate ?rtol ?atol ?h0 ?max_steps ~record io ~rhs ~event ~t0 ~y0 ~t1 () =
  Err.protect @@ fun () ->
  drive ?rtol ?atol ?h0 ?max_steps ~record io ~rhs ~event ~t0 ~y0 ~t1 ()

(* The boxed-float protocol of the oracles over the driver's flat one. *)
let boxed f =
  let io = io () in
  (io, fun () -> io.dy <- f io.t io.y)

let rkf45 ?rtol ?atol ?h0 ?max_steps ~f ~t0 ~y0 ~t1 () =
  Err.protect @@ fun () ->
  let io, rhs = boxed f in
  match
    drive ?rtol ?atol ?h0 ?max_steps ~record:true io ~rhs ~event:None ~t0 ~y0
      ~t1 ()
  with
  | Error e -> Error e
  | Ok r -> Ok r.points

module For_testing = struct
  let rkf45 = rkf45

  type event_result = {
    trajectory : trajectory;
    event_time : float option;
    event_state : float option;
  }

  let rkf45_event ?rtol ?atol ?h0 ?max_steps ~f ~event ~t0 ~y0 ~t1 () =
    Err.protect @@ fun () ->
    let io, rhs = boxed f in
    match
      drive ?rtol ?atol ?h0 ?max_steps ~record:true io ~rhs
        ~event:(Some (fun () -> io.g <- event io.t io.y))
        ~t0 ~y0 ~t1 ()
    with
    | Error e -> Error e
    | Ok r -> Ok { trajectory = r.points; event_time = r.t_event; event_state = r.y_event }
end
