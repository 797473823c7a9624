module Dt = Gnrflash_quantum.Direct_tunneling
module C = Gnrflash_physics.Constants

type sample = {
  time : float;
  qfg : float;
  dvt : float;
}

(* Leakage current density for stored charge q: the floating gate sits at
   VFG = q/CT (negative for electrons), pushing electrons back to the
   channel through the tunnel oxide. *)
let leakage_j (t : Fgt.t) ~temp ~qfg =
  let vfg = Fgt.vfg t ~vgs:0. ~qfg in
  let v_ox = -.vfg in
  if v_ox <= 0. then 0.
  else begin
    let j = Dt.current_density t.Fgt.tunnel_fn ~v_ox ~thickness:t.Fgt.xto in
    (* Arrhenius acceleration around room temperature, Ea = 0.3 eV --
       phenomenological trap-assisted component. *)
    let ea = 0.3 *. C.ev in
    let accel = exp (ea /. C.k_b *. ((1. /. 300.) -. (1. /. temp))) in
    j *. accel
  end

let simulate ?(temp = 300.) t ~qfg0 ~t_start ~t_end =
  if qfg0 >= 0. then invalid_arg "Retention.simulate: qfg0 must be negative (programmed)";
  if t_start <= 0. || t_end <= t_start then invalid_arg "Retention.simulate: bad time range";
  let decades = log10 (t_end /. t_start) in
  let n = max 2 (int_of_float (ceil (decades *. 16.))) in
  let times = Gnrflash_numerics.Grid.geomspace t_start t_end n in
  let q = ref qfg0 in
  let prev_t = ref 0. in
  Array.map
    (fun time ->
       (* quasi-static step: charge loss = J * area * dt, with dt split if
          the step would remove more than 5% of the charge *)
       let dt_total = time -. !prev_t in
       let remaining = ref dt_total in
       while !remaining > 0. && !q < 0. do
         let j = leakage_j t ~temp ~qfg:!q in
         let dq_rate = j *. t.Fgt.area in
         if dq_rate <= 0. then remaining := 0.
         else begin
           let max_step = 0.05 *. abs_float !q /. dq_rate in
           let step = min !remaining max_step in
           q := min 0. (!q +. (dq_rate *. step));
           remaining := !remaining -. step
         end
       done;
       prev_t := time;
       { time; qfg = !q; dvt = Fgt.threshold_shift t ~qfg:!q })
    times

let charge_loss_percent t ~qfg0 ~after =
  let samples = simulate t ~qfg0 ~t_start:1e-3 ~t_end:after in
  let final = samples.(Array.length samples - 1) in
  100. *. (1. -. (final.qfg /. qfg0))

let retention_time ?(temp = 300.) t ~qfg0 ~criterion =
  if criterion <= 0. || criterion >= 1. then
    invalid_arg "Retention.retention_time: criterion out of (0, 1)";
  let horizon = Gnrflash_physics.Units.years 100. in
  let samples = simulate ~temp t ~qfg0 ~t_start:1e-3 ~t_end:horizon in
  let hit =
    Array.fold_left
      (fun acc s ->
         match acc with
         | Some _ -> acc
         | None -> if s.qfg /. qfg0 < criterion then Some s.time else None)
      None samples
  in
  match hit with Some t' -> t' | None -> infinity
