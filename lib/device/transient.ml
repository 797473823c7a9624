module Ode = Gnrflash_numerics.Ode
module Fn = Gnrflash_quantum.Fn
module Roots = Gnrflash_numerics.Roots
module Tel = Gnrflash_telemetry.Telemetry
module Err = Gnrflash_resilience.Solver_error

type error = Err.t

type sample = {
  time : float;
  qfg : float;
  vfg : float;
  j_in : float;
  j_out : float;
}

type final = {
  tsat : float option;
  qfg_final : float;
  dvt_final : float;
  h_first : float option;
}

type result = {
  samples : sample array;
  tsat : float option;
  qfg_final : float;
  dvt_final : float;
  h_first : float option;
}

(* The fused FN rate kernel of one solve. The device constants are hoisted
   out of [Fgt] once, [rates] computes the oxide fields once and both current
   densities from them, and the results land in the record's mutable float
   fields, so an evaluation allocates nothing. Every expression repeats the
   unit-typed bodies of [Fgt.vfg], [Fgt.j_in], [Fgt.j_out] and
   [Fgt.charging_rate] operation for operation (and [Fn.current_density]
   per interface), so its values are bit-identical to theirs. *)
type kernel = {
  vgs : float;
  gcr : float;
  ct : float;
  vs : float;
  xto : float;
  xco : float;
  area : float;
  a_tun : float;
  b_tun : float;
  a_ctl : float;
  b_ctl : float;
  mutable vfg : float;
  mutable j_in : float;
  mutable j_out : float;
}

let kernel (t : Fgt.t) ~vgs =
  {
    vgs;
    gcr = Fgt.gcr t;
    ct = Fgt.ct t;
    vs = t.Fgt.vs;
    xto = t.Fgt.xto;
    xco = t.Fgt.xco;
    area = t.Fgt.area;
    a_tun = t.Fgt.tunnel_fn.Fn.a;
    b_tun = t.Fgt.tunnel_fn.Fn.b;
    a_ctl = t.Fgt.control_fn.Fn.a;
    b_ctl = t.Fgt.control_fn.Fn.b;
    vfg = 0.;
    j_in = 0.;
    j_out = 0.;
  }

(* [Fn.current_density]: A·E²·exp(−B/E), zero for a non-positive field *)
let[@inline] fn_density a b field =
  if field <= 0. then 0. else exp (-.(b /. field)) *. (a *. field *. field)

let[@inline] rates k qfg =
  let vfg = (k.gcr *. k.vgs) +. (qfg /. k.ct) in
  let et = (vfg -. k.vs) /. k.xto in
  let ec = (k.vgs -. vfg) /. k.xco in
  let from_channel = if et > 0. then fn_density k.a_tun k.b_tun et else 0. in
  let from_gate = if ec < 0. then fn_density k.a_ctl k.b_ctl (-.ec) else 0. in
  let to_gate = if ec > 0. then fn_density k.a_ctl k.b_ctl ec else 0. in
  let to_channel = if et < 0. then fn_density k.a_tun k.b_tun (-.et) else 0. in
  k.vfg <- vfg;
  k.j_in <- from_channel +. from_gate;
  k.j_out <- to_gate +. to_channel

(* dQFG/dt [A]. Inlined, like [imbalance], so a caller that stores the
   result in a float field boxes nothing. *)
let[@inline] dqfg_dt k qfg =
  rates k qfg;
  -.((k.j_in -. k.j_out) *. k.area)

let sample_of k ~time ~qfg =
  rates k qfg;
  { time; qfg; vfg = k.vfg; j_in = k.j_in; j_out = k.j_out }

let initial_currents t ~vgs ~qfg = (Fgt.j_in t ~vgs ~qfg, Fgt.j_out t ~vgs ~qfg)

(* The saturation event: |Jin − Jout|/(Jin + Jout) less the paper's 1%,
   negative once saturated. *)
let[@inline] imbalance k ~qfg =
  rates k qfg;
  let ji = k.j_in and jo = k.j_out in
  let s = ji +. jo in
  if s <= 0. then -1. (* nothing flowing: saturated by definition *)
  else (abs_float (ji -. jo) /. s) -. 0.01

(* Cold-start step size from the RHS scale at t = 0 (the standard
   [h0 = 0.01·|y|/|f|] heuristic, with the natural charge magnitude
   CT·(1+|VGS|) standing in for |y| since transients start at qfg ≈ 0).
   The old fixed [duration/100] guess overshot straight into the region
   where the FN exponential overflows, burning one [ode/step_nan_shrink]
   cascade per pulse. *)
let initial_step_size t ~vgs ~f0 ~duration =
  let q_scale = Fgt.ct t *. (1. +. abs_float vgs) in
  let f0 = abs_float f0 in
  if Float.is_finite f0 && f0 > 0. then
    Float.min (duration /. 100.) (0.01 *. q_scale /. f0)
  else duration /. 100.

(* The one exact solve behind [run] and [pulse]. The RHS and the saturation
   event reach [Ode.integrate] as [unit -> unit] closures over its flat
   [io] record and the kernel's float fields, so no evaluation boxes a
   float; [record] decides whether the integrator keeps the trajectory.
   Both entry points count as [transient/solve] under the [transient/run]
   span and name themselves "Transient.run" in typed errors, so the ledger
   and the error text read the same whichever one a caller uses. [finish]
   turns the integrator's solution and the saturation time into the
   caller's result. *)
let rtol = 1e-8

let solve ~record ~qfg0 ?h0 t ~vgs ~duration finish =
  if duration <= 0. then
    Error (Err.make ~solver:"Transient.run" (Err.Invalid_input "duration <= 0"))
  else
    Tel.span "transient/run" @@ fun () -> begin
    Tel.count "transient/solve";
    (* absolute tolerance scaled to the natural charge magnitude CT·VGS so
       the controller resolves attocoulomb states *)
    let atol = 1e-10 *. Fgt.ct t *. (1. +. abs_float vgs) in
    (* One fused kernel serves the RHS, the saturation event and the
       samples. Only the RHS calls made by the integrator count as
       [ode/rhs_eval]; the [h0] probe, the event and the samples go
       straight to the kernel. *)
    let k = kernel t ~vgs in
    let io = Ode.io () in
    let rhs () = io.Ode.dy <- dqfg_dt k io.Ode.y in
    let event () =
      io.Ode.g <- imbalance k ~qfg:io.Ode.y
    in
    let h0 =
      match h0 with
      | Some h when Float.is_finite h && h > 0. -> Float.min h duration
      | Some _ | None -> initial_step_size t ~vgs ~f0:(dqfg_dt k qfg0) ~duration
    in
    (* If the device starts already balanced (e.g. vgs = 0) the event
       function is negative at t0; integrate without the event. *)
    let already_balanced = imbalance k ~qfg:qfg0 <= 0. in
    if already_balanced then Tel.count "transient/already_balanced";
    match
      Ode.integrate ~rtol ~atol ~h0 ~record io ~rhs
        ~event:(if already_balanced then None else Some event)
        ~t0:0. ~y0:qfg0 ~t1:duration ()
    with
    | Error e -> Error e
    | Ok sol ->
      let tsat = if already_balanced then Some 0. else sol.Ode.t_event in
      (match tsat with
       | Some ts ->
         Tel.count "transient/tsat_event";
         if ts < duration then Tel.count "transient/early_stop"
       | None -> ());
      Ok (finish k sol tsat)
  end

let run ?(qfg0 = 0.) ?h0 t ~vgs ~duration =
  solve ~record:true ~qfg0 ?h0 t ~vgs ~duration
    (fun k sol tsat ->
      let { Ode.times; states } = sol.Ode.points in
      let samples = Array.mapi (fun i time -> sample_of k ~time ~qfg:states.(i)) times in
      let qfg_final = sol.Ode.y_final in
      {
        samples;
        tsat;
        qfg_final;
        dvt_final = Fgt.threshold_shift t ~qfg:qfg_final;
        h_first = sol.Ode.h_first;
      })

let pulse ?(qfg0 = 0.) ?h0 t ~vgs ~duration =
  solve ~record:false ~qfg0 ?h0 t ~vgs ~duration
    (fun _ sol tsat ->
      let qfg_final = sol.Ode.y_final in
      ({
        tsat;
        qfg_final;
        dvt_final = Fgt.threshold_shift t ~qfg:qfg_final;
        h_first = sol.Ode.h_first;
      } : final))

let saturation_charge t ~vgs =
  Tel.span "transient/saturation_charge" @@ fun () ->
  Tel.count "transient/fixed_point_solve";
  (* Jin − Jout through the fused kernel: bit-identical to
     [Fgt.j_in −. Fgt.j_out], without a boxed float per cross-module
     call *)
  let k = kernel t ~vgs in
  let f q =
    rates k q;
    k.j_in -. k.j_out
  in
  (* Bracket between q = 0 and the charge that pins VFG to the balanced
     voltage divider point: VFGstar with VFG*/xto = (vgs - VFGstar)/xco for
     programming (mirrored for erase). *)
  let vfg_star = vgs *. t.Fgt.xto /. (t.Fgt.xto +. t.Fgt.xco) in
  let q_star = (vfg_star -. (Fgt.gcr t *. vgs)) *. Fgt.ct t in
  let ji0 = Fgt.j_in t ~vgs ~qfg:0. and jo0 = Fgt.j_out t ~vgs ~qfg:0. in
  (* Balanced at q = 0 within rounding (an exact [f 0. = 0.] test misses
     currents equal up to the last ulp, and both-zero is balanced too). *)
  if ji0 +. jo0 <= 0. || abs_float (ji0 -. jo0) <= 1e-12 *. (ji0 +. jo0) then
    Ok 0.
  else
    (* expand slightly beyond the divider point, the exact fixed point when
       both oxides share FN coefficients *)
    match Roots.brent f 0. (q_star *. 1.05) with
    | Error { Err.kind = Err.Bracket_failure _; _ } -> (
      (* a tunnel barrier lower than the control one (a [Variation] draw)
         moves the fixed point past 1.05·q*: expand from [0, q*] *)
      match Roots.bracket_root f 0. q_star with
      | Error e -> Error e
      | Ok (lo, hi) -> Roots.brent f lo hi)
    | r -> r

let time_to_threshold_shift ?(qfg0 = 0.) t ~vgs ~dvt ~max_time =
  let solver = "Transient.time_to_threshold_shift" in
  if max_time <= 0. then
    Error (Err.make ~solver (Err.Invalid_input "max_time <= 0"))
  else
    Tel.span "transient/time_to_threshold_shift" @@ fun () -> begin
    Tel.count "transient/ttts_solve";
    let q_target = Fgt.qfg_for_threshold_shift t ~dvt in
    let k = kernel t ~vgs in
    let sign = if dvt >= 0. then 1. else -1. in
    let io = Ode.io () in
    let rhs () = io.Ode.dy <- dqfg_dt k io.Ode.y in
    let event () = io.Ode.g <- (io.Ode.y -. q_target) *. sign in
    let atol = 1e-10 *. Fgt.ct t *. (1. +. abs_float vgs) in
    let f0 = dqfg_dt k qfg0 in
    let h0 = initial_step_size t ~vgs ~f0 ~duration:max_time in
    (* A start at or past the target needs no time: the event would begin
       on or beyond its zero and never see a crossing. *)
    if (qfg0 -. q_target) *. sign <= 0. then Ok (Some 0.)
    (* The charge of a 1-D autonomous flow moves monotonically and never
       crosses a zero of its rate, so the target is out of reach when the
       rate at the start points away from it, or when the rate at the
       target points back (a fixed point lies between them). Both tests
       are strict; a zero rate is left to the solve. *)
    else if f0 *. sign > 0. || dqfg_dt k q_target *. sign > 0. then Ok None
    else
      Result.map
        (fun sol -> sol.Ode.t_event)
        (Ode.integrate ~atol ~h0 ~record:false io ~rhs ~event:(Some event) ~t0:0.
           ~y0:qfg0 ~t1:max_time ())
  end
