module Interp = Gnrflash_numerics.Interp
module Tel = Gnrflash_telemetry.Telemetry
module Err = Gnrflash_resilience.Solver_error

type error = Err.t

(* ---------- operating box ---------- *)

type box = {
  vgs_abs_min : float;
  vgs_abs_max : float;
  gcr_min : float;
  gcr_max : float;
  xto_min : float;
  xto_max : float;
  duration_min : float;
  duration_max : float;
}

let paper_box =
  {
    vgs_abs_min = 8.;
    vgs_abs_max = 17.;
    gcr_min = 0.45;
    gcr_max = 0.60;
    xto_min = 5e-9;
    xto_max = 9e-9;
    duration_min = 1e-9;
    duration_max = 1e-1;
  }

(* GCR round-trips through Capacitance.of_gcr (a handful of ulps); XTO is a
   stored float compared against literals. Tiny absolute slacks keep a
   device *constructed at* a box corner inside the box. *)
let gcr_slack = 1e-9
let xto_slack = 1e-15

let in_box ?(box = paper_box) t ~vgs ~duration =
  let v = abs_float vgs in
  let gcr = Fgt.gcr t in
  v >= box.vgs_abs_min
  && v <= box.vgs_abs_max
  && gcr >= box.gcr_min -. gcr_slack
  && gcr <= box.gcr_max +. gcr_slack
  && t.Fgt.xto >= box.xto_min -. xto_slack
  && t.Fgt.xto <= box.xto_max +. xto_slack
  && duration >= box.duration_min
  && duration <= box.duration_max

(* ---------- tables ---------- *)

type t = {
  vgs : float;
  q_of_t : Interp.t;
  t_of_q : Interp.t;
  q_lo : float;          (* inclusive serving range, q_lo <= q_hi *)
  q_hi : float;
  q_scale : float;       (* divergence-metric floor scale *)
  t_end : float;         (* last tabulated trajectory time *)
  q_end : float;         (* charge at t_end (event charge if saturated) *)
  t_sat : float option;  (* saturation-event time on the trajectory *)
  bound : float;
  measured : float;
  knots : int;
}

let qfg_range t = (t.q_lo, t.q_hi)

let[@inline] divergence t ~exact ~approx =
  abs_float (approx -. exact) /. Float.max (abs_float exact) (1e-3 *. t.q_scale)

type response = {
  qfg_after : float;
  saturated : bool;
}

let query t ~qfg ~duration =
  if duration <= 0. || qfg < t.q_lo || qfg > t.q_hi then None
  else begin
    let t0 = Interp.eval t.t_of_q qfg in
    (* t_of_q is the inverse of a monotone interpolant of the same data, not
       the bit-exact inverse: clamp composition noise back onto the table *)
    let t0 = Float.max 0. (Float.min t0 t.t_end) in
    let t1 = t0 +. duration in
    match t.t_sat with
    | Some ts when t1 >= ts -> Some { qfg_after = t.q_end; saturated = true }
    | _ ->
      if t1 > t.t_end then None
      else Some { qfg_after = Interp.eval t.q_of_t t1; saturated = false }
  end

(* ---------- build + certification ---------- *)

let solver = "Pulse_surrogate.build"

(* The headroom multiplier and floor on the held-out measurement: probes sit
   between knots like real queries do, but an unlucky operating point can
   land worse than the worst probe, and the exact side of a later comparison
   is an independent adaptive solve with its own O(rtol) noise. *)
let bound_headroom = 3.
let bound_floor = 2e-6

let build ?(box = paper_box) device ~vgs:v =
  Tel.span "surrogate/build" @@ fun () ->
  Tel.count "surrogate/build";
  match Transient.saturation_charge device ~vgs:v with
  | Error e -> Error e
  | Ok q_sat ->
    if abs_float q_sat <= 1e-6 *. Fgt.ct device then
      Error (Err.make ~solver (Err.Invalid_input "degenerate fixed point"))
    else begin
      let q_start = -1.5 *. q_sat in
      match Transient.run ~qfg0:q_start device ~vgs:v ~duration:box.duration_max with
      | Error e -> Error e
      | Ok r ->
        (* keep only samples that strictly advance the charge toward the
           fixed point — the interpolants need strictly monotone abscissae
           in both coordinates. The kept samples' indices go into an int
           array, then their times (from the first sample's) and charges
           into [ft]/[fq] at their exact length: no list, no boxed float. *)
        let toward_sat = q_sat > q_start in
        let samples = r.Transient.samples in
        let kept = Array.make (Array.length samples) 0 in
        let m = ref 0 in
        for k = 0 to Array.length samples - 1 do
          let s = samples.(k) in
          let advance =
            !m = 0
            ||
            let last = samples.(kept.(!m - 1)) in
            s.Transient.time > last.Transient.time
            && (if toward_sat then s.Transient.qfg > last.Transient.qfg
                else s.Transient.qfg < last.Transient.qfg)
          in
          if advance then begin
            kept.(!m) <- k;
            incr m
          end
        done;
        let m = !m in
        if m < 8 then
          Error (Err.make ~solver (Err.Invalid_input "too few trajectory samples"))
        else begin
          let t0 = samples.(kept.(0)).Transient.time in
          let ft = Array.make m 0. and fq = Array.make m 0. in
          for i = 0 to m - 1 do
            ft.(i) <- samples.(kept.(i)).Transient.time -. t0;
            fq.(i) <- samples.(kept.(i)).Transient.qfg
          done;
          let t_end = ft.(m - 1) in
          let q_end = fq.(m - 1) in
          let t_sat =
            Option.map (fun ts -> Float.min ts t_end) r.Transient.tsat
          in
          (* knots: even-indexed samples plus the endpoint; the odd-indexed
             samples are held out as certification probes, so probe [p] is
             sample [2p + 1] *)
          let last_odd = (m - 1) mod 2 = 1 in
          let nk = ((m + 1) / 2) + if last_odd then 1 else 0 in
          let np = (m / 2) - if last_odd then 1 else 0 in
          let kt = Array.make nk 0. and kq = Array.make nk 0. in
          for k = 0 to nk - 1 do
            let i = if 2 * k < m then 2 * k else m - 1 in
            kt.(k) <- ft.(i);
            kq.(k) <- fq.(i)
          done;
          let interp_pair ts qs =
            let q_of_t = Interp.pchip ts qs in
            let t_of_q =
              if toward_sat then Interp.pchip qs ts
              else begin
                let n = Array.length qs in
                let rq = Array.make n 0. and rt = Array.make n 0. in
                for i = 0 to n - 1 do
                  rq.(i) <- qs.(n - 1 - i);
                  rt.(i) <- ts.(n - 1 - i)
                done;
                Interp.pchip rq rt
              end
            in
            (q_of_t, t_of_q)
          in
          let q_of_t, t_of_q = interp_pair kt kq in
          (* the serving range stops one accepted step short of the event
             charge: every in-range exact re-solve still sees the event
             ahead of it (its event function is strictly positive) *)
          let e0 = fq.(0) and e1 = fq.(m - 2) in
          let q_lo = Float.min e0 e1 and q_hi = Float.max e0 e1 in
          let q_scale =
            Float.max (abs_float q_lo) (Float.max (abs_float q_hi) (abs_float q_end))
          in
          let table =
            {
              vgs = v; q_of_t; t_of_q; q_lo; q_hi; q_scale; t_end; q_end;
              t_sat; bound = 0.; measured = 0.; knots = nk;
            }
          in
          (* certification against the held-out samples: direct q_of_t
             probes plus the composed query Q(T(q_i) + (t_j − t_i)) at
             strides 1, np/4, np/2 and to the last probe, plus the
             saturated tail *)
          let worst = ref 0. in
          for p = 0 to np - 1 do
            let i = (2 * p) + 1 in
            let d = divergence table ~exact:fq.(i) ~approx:(Interp.eval q_of_t ft.(i)) in
            if d > !worst then worst := d;
            let tq = Interp.eval t_of_q fq.(i) in
            for s = 0 to 3 do
              let p' =
                match s with 0 -> p + 1 | 1 -> p + (np / 4) | 2 -> p + (np / 2) | _ -> np - 1
              in
              if p' > p && p' < np then begin
                let j = (2 * p') + 1 in
                let t1 = tq +. (ft.(j) -. ft.(i)) in
                let d = divergence table ~exact:fq.(j) ~approx:(Interp.eval q_of_t t1) in
                if d > !worst then worst := d
              end
            done
          done;
          (match t_sat with
           | Some _ ->
             let d = divergence table ~exact:r.Transient.qfg_final ~approx:q_end in
             if d > !worst then worst := d
           | None -> ());
          let measured = !worst in
          let bound = (bound_headroom *. measured) +. bound_floor in
          (* certification ran on the half-resolution knots; serve at full
             sample resolution. Halving the PCHIP knot spacing only shrinks
             the interpolation error on this smooth monotone trajectory, so
             the coarse-grid measurement stays an upper bound for the
             served table. *)
          let q_of_t, t_of_q = interp_pair ft fq in
          Ok { table with q_of_t; t_of_q; bound; measured; knots = m }
        end
    end

module For_testing = struct
  let certified_bound t = t.bound
  let max_measured_divergence t = t.measured
  let vgs t = t.vgs
  let knot_count t = t.knots

  let saturation_time t ~qfg =
    match t.t_sat with
    | None -> None
    | Some ts ->
      if qfg < t.q_lo || qfg > t.q_hi then None
      else Some (Float.max 0. (ts -. Interp.eval t.t_of_q qfg))

  let time_to_charge t ~qfg0 ~qfg1 =
    if qfg0 < t.q_lo || qfg0 > t.q_hi || qfg1 < t.q_lo || qfg1 > t.q_hi then None
    else Some (Interp.eval t.t_of_q qfg1 -. Interp.eval t.t_of_q qfg0)
end
