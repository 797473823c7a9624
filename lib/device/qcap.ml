module Mlgnr = Gnrflash_materials.Mlgnr
module Gnr = Gnrflash_materials.Gnr
module C = Gnrflash_physics.Constants
module Roots = Gnrflash_numerics.Roots
module Tel = Gnrflash_telemetry.Telemetry
module Err = Gnrflash_resilience.Solver_error

let default_stack () = Mlgnr.make (Gnr.make Gnr.Armchair 12) ~layers:3

let fermi_shift ~stack ~area ~qfg =
  let sigma = abs_float qfg /. area in
  if sigma <= 0. then 0.
  else begin
    Tel.span "qcap/fermi_shift" @@ fun () ->
    (* invert storable_charge: find ef with stack charge density = sigma *)
    let f ef_ev = Mlgnr.storable_charge stack ~ef_max_ev:ef_ev -. sigma in
    match Roots.bracket_root f 1e-4 1. with
    | Error e ->
      Tel.count ("qcap/fermi_shift_fallback/" ^ Err.label e);
      0.
    | Ok (lo, hi) ->
      (match Roots.brent f lo hi with
       | Ok ef_ev -> ef_ev *. C.ev
       | Error e ->
         Tel.count ("qcap/fermi_shift_fallback/" ^ Err.label e);
         0.)
  end

let vfg_effective t ~stack ~vgs ~qfg =
  let geom = Fgt.vfg t ~vgs ~qfg in
  let shift = fermi_shift ~stack ~area:t.Fgt.area ~qfg /. C.q in
  (* the tunneling drive is the electrochemical potential mu = -e*phi + EF:
     stored electrons both lower phi (the Q/CT term inside [geom]) and
     raise EF, so the effective drive drops by an extra EF/e — the quantum
     capacitance acting in series; hole storage mirrors it *)
  if qfg < 0. then geom -. shift else if qfg > 0. then geom +. shift else geom

type result = {
  qfg_final : float;
  qfg_final_metal : float;
  dvt_final : float;
  dvt_final_metal : float;
  window_shrink : float;
  ef_final_ev : float;
}

(* Forward stepping with per-step charge clamping (5% of the running
   scale); the FN currents are stiff but monotone, so this converges to the
   fixed point like the metal-gate ODE does. *)
let run ?(stack = default_stack ()) t ~vgs ~duration =
  if duration <= 0. then Error "Qcap.run: duration <= 0"
  else begin
    (* dQFG/dt through both FN paths, at the band-filling-corrected VFG *)
    let j_net qfg = Fgt.charging_rate t ~vgs ~vfg:(vfg_effective t ~stack ~vgs ~qfg) in
    (* Integrate with damped steps until either the time budget runs out or
       the charge is within 0.1% of the fixed point; then snap to the fixed
       point found by root finding (the charge balance is monotone in q, so
       the equilibrium is unique). *)
    let q_scale = Fgt.ct t *. (1. +. abs_float vgs) in
    let q_star =
      Tel.span "qcap/equilibrium" @@ fun () ->
      let bound = -.1.2 *. q_scale in
      match Roots.brent j_net (if vgs >= 0. then bound else 0.)
              (if vgs >= 0. then 0. else -.bound) with
      | Ok q -> q
      | Error e ->
        Tel.count ("qcap/equilibrium_fallback/" ^ Err.label e);
        0.
    in
    let q = ref 0. and time = ref 0. in
    let continue = ref true in
    while !continue && !time < duration do
      let rate = j_net !q in
      if abs_float (!q -. q_star) < 1e-3 *. (abs_float q_star +. 1e-30) then begin
        q := q_star;
        continue := false
      end
      else if abs_float rate <= 0. then continue := false
      else begin
        (* never step past the fixed point *)
        let dt_charge = 0.5 *. abs_float (q_star -. !q) /. abs_float rate in
        let dt = max (min dt_charge (duration -. !time)) (duration *. 1e-12) in
        q := !q +. (rate *. dt);
        time := !time +. dt
      end
    done;
    match Transient.pulse t ~vgs ~duration with
    | Error e -> Error (Gnrflash_resilience.Solver_error.to_string e)
    | Ok metal ->
      let dvt_final = Fgt.threshold_shift t ~qfg:!q in
      let dvt_final_metal = metal.Transient.dvt_final in
      Ok
        {
          qfg_final = !q;
          qfg_final_metal = metal.Transient.qfg_final;
          dvt_final;
          dvt_final_metal;
          window_shrink =
            (if Float.equal dvt_final_metal 0. then 0. else 1. -. (dvt_final /. dvt_final_metal));
          ef_final_ev = fermi_shift ~stack ~area:t.Fgt.area ~qfg:!q /. C.ev;
        }
  end
