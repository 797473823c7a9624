module Tel = Gnrflash_telemetry.Telemetry
module Err = Gnrflash_resilience.Solver_error
module Budget = Gnrflash_resilience.Budget

type error = Err.t

(* Final bracket width relative to the magnitude of the endpoints. *)
let tol = 1e-12

(* Relative closeness with a tiny absolute floor so roots at (or near) zero
   still converge; the floor must stay far below any physically meaningful
   magnitude (charges of 1e-17 C appear in the device layer). *)
let close a b =
  abs_float (b -. a) <= (tol *. max (abs_float a) (abs_float b)) +. 1e-300

(* Every function evaluation is counted and charged against the ambient
   budget. *)
let instrument f x =
  Tel.count "roots/fn_eval";
  Budget.note_evals 1;
  f x

(* Brent (1973): keep a bracketing pair (a, b) with b the best iterate; try
   inverse quadratic / secant interpolation, fall back to bisection whenever
   the candidate step is not clearly contracting. *)
let brent ?(max_iter = 200) f a b =
  let solver = "Roots.brent" in
  Err.protect @@ fun () ->
  let f = instrument f in
  let fa = f a and fb = f b in
  if Float.equal fa 0. then Ok a
  else if Float.equal fb 0. then Ok b
  else if fa *. fb > 0. then begin
    Tel.count "roots/bracket_fail";
    Error (Err.make ~solver (Err.Bracket_failure { lo = a; hi = b; f_lo = fa; f_hi = fb }))
  end
  else begin
    let a = ref a and b = ref b and fa = ref fa and fb = ref fb in
    if abs_float !fa < abs_float !fb then begin
      let t = !a in a := !b; b := t;
      let t = !fa in fa := !fb; fb := t
    end;
    let c = ref !a and fc = ref !fa and d = ref 0. and mflag = ref true in
    let result = ref None in
    let i = ref 0 in
    while Option.is_none !result && !i < max_iter do
      incr i;
      Tel.count "roots/brent_iter";
      match Budget.check ~solver () with
      | Error e -> result := Some (Error e)
      | Ok () ->
        if Float.equal !fb 0. || close !a !b then result := Some (Ok !b)
        else begin
          let s =
            if (not (Float.equal !fa !fc)) && not (Float.equal !fb !fc) then
              (* inverse quadratic interpolation *)
              (!a *. !fb *. !fc /. ((!fa -. !fb) *. (!fa -. !fc)))
              +. (!b *. !fa *. !fc /. ((!fb -. !fa) *. (!fb -. !fc)))
              +. (!c *. !fa *. !fb /. ((!fc -. !fa) *. (!fc -. !fb)))
            else !b -. (!fb *. (!b -. !a) /. (!fb -. !fa))
          in
          let lo = (3. *. !a +. !b) /. 4. and hi = !b in
          let lo, hi = if lo <= hi then lo, hi else hi, lo in
          let bad =
            s < lo || s > hi
            || (!mflag && abs_float (s -. !b) >= abs_float (!b -. !c) /. 2.)
            || ((not !mflag) && abs_float (s -. !b) >= abs_float (!c -. !d) /. 2.)
          in
          let s = if bad then 0.5 *. (!a +. !b) else s in
          mflag := bad;
          let fs = f s in
          if Float.is_nan fs then
            result := Some (Error (Err.make ~solver (Err.Nan_region { at = s })))
          else begin
            d := !c;
            c := !b; fc := !fb;
            if !fa *. fs < 0. then begin b := s; fb := fs end
            else begin a := s; fa := fs end;
            if abs_float !fa < abs_float !fb then begin
              let t = !a in a := !b; b := t;
              let t = !fa in fa := !fb; fb := t
            end
          end
        end
    done;
    match !result with
    | Some r -> r
    | None ->
      (* Iteration cap hit before [close] held: the best iterate is NOT
         a converged root. Silently returning it (the old behavior) let
         unconverged values flow into device solves; fail loudly with the
         best iterate attached so callers/fallbacks can still use it. *)
      Error
        (Err.make ~solver
           (Err.No_convergence { iterations = !i; best = !b; f_best = !fb }))
  end

let bracket_root f a b =
  let solver = "Roots.bracket_root" in
  Err.protect @@ fun () ->
  let f = instrument f in
  if Float.equal a b then
    Error (Err.make ~solver (Err.Invalid_input "empty interval"))
  else begin
    let a = ref (min a b) and b = ref (max a b) in
    let fa = ref (f !a) and fb = ref (f !b) in
    let rec loop i =
      match Budget.check ~solver () with
      | Error e -> Error e
      | Ok () ->
        if !fa *. !fb <= 0. then Ok (!a, !b)
        else if i >= 60 then begin
          Tel.count "roots/bracket_fail";
          Error
            (Err.make ~solver
               (Err.Bracket_failure
                  { lo = !a; hi = !b; f_lo = !fa; f_hi = !fb }))
        end
        else begin
          Tel.count "roots/bracket_expand";
          if abs_float !fa < abs_float !fb then begin
            a := !a -. (1.6 *. (!b -. !a));
            fa := f !a
          end else begin
            b := !b +. (1.6 *. (!b -. !a));
            fb := f !b
          end;
          loop (i + 1)
        end
    in
    loop 0
  end
