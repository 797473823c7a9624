module C = Gnrflash_physics.Constants

type trap = {
  depth_fraction : float;
  energy_ev : float;
}

let mid_gap_trap = { depth_fraction = 0.5; energy_ev = 2.6 }

(* Per-trap capture cross-section times attempt rate, folded into one
   calibration prefactor [A·m²] such that a fresh oxide's TAT with
   N_t ~ 1e15 m^-2 sits ~2 decades below direct tunneling at 5 nm/2 V. *)
let per_trap_prefactor = 1e-18

let validate ~v_ox ~thickness =
  if thickness <= 0. then invalid_arg "Trap_assisted: thickness <= 0";
  if v_ox <= 0. then invalid_arg "Trap_assisted: v_ox <= 0"

let step_transmissions (p : Fn.params) trap ~v_ox ~thickness =
  validate ~v_ox ~thickness;
  if trap.depth_fraction <= 0. || trap.depth_fraction >= 1. then
    invalid_arg "Trap_assisted: depth_fraction out of (0, 1)";
  let m_eff = p.Fn.m_ox_rel *. C.m0 in
  let phi_j = p.Fn.phi_b_ev *. C.ev in
  let x_t = trap.depth_fraction *. thickness in
  (* potential at the trap position, tilted by the oxide field *)
  let drop_at_trap = C.q *. v_ox *. trap.depth_fraction in
  (* capture step: tunnel from the emitter Fermi level to the trap level;
     barrier runs from phi down to the trap position's band edge. The
     electron enters at E = 0 and the local barrier is reduced by the
     field. *)
  let barrier_in =
    Barrier.make ~m_eff [ (0., phi_j); (x_t, phi_j -. drop_at_trap) ]
  in
  let t_in = Wkb.transmission barrier_in ~energy:0. in
  (* emission step: from the trap level (e_t below the local band edge)
     through the remaining oxide *)
  let trap_level = phi_j -. drop_at_trap -. (trap.energy_ev *. C.ev) in
  let barrier_out =
    Barrier.make ~m_eff
      [ (x_t, phi_j -. drop_at_trap); (thickness, phi_j -. (C.q *. v_ox)) ]
  in
  let t_out = Wkb.transmission barrier_out ~energy:(max trap_level 0.) in
  (t_in, t_out)

let current_density (p : Fn.params) ~trap_density ~v_ox ~thickness =
  if trap_density < 0. then invalid_arg "Trap_assisted: negative trap density";
  if v_ox <= 0. then 0.
  else begin
    let t_in, t_out = step_transmissions p mid_gap_trap ~v_ox ~thickness in
    (* two sequential steps: rate limited by the slower one *)
    trap_density *. per_trap_prefactor *. min t_in t_out
  end

let silc_ratio p ~trap_density ~v_ox ~thickness =
  let j_tat = current_density p ~trap_density ~v_ox ~thickness in
  let j_dt = Direct_tunneling.current_density p ~v_ox ~thickness in
  if j_dt <= 0. then infinity else j_tat /. j_dt
