module C = Gnrflash_physics.Constants
module U = Gnrflash_units

type params = {
  a : float;
  b : float;
  phi_b_ev : float;
  m_ox_rel : float;
}

let coefficients ~phi_b_ev ~m_ox_rel =
  let phi_b = U.ev phi_b_ev in
  if U.(phi_b <=@ zero) then invalid_arg "Fn.coefficients: phi_b <= 0";
  if m_ox_rel <= 0. then invalid_arg "Fn.coefficients: m_ox <= 0";
  let phi_j = U.to_float (U.ev_to_joule phi_b) in
  let m_ox = m_ox_rel *. C.m0 in
  let a = C.q ** 3. *. C.m0 /. (8. *. Float.pi *. C.h *. m_ox *. phi_j) in
  let b = 8. *. Float.pi *. sqrt (2. *. m_ox) *. (phi_j ** 1.5) /. (3. *. C.q *. C.h) in
  { a; b; phi_b_ev; m_ox_rel }

let of_interface electrode oxide =
  let phi_b_ev = Gnrflash_materials.Workfunction.barrier_height electrode oxide in
  if phi_b_ev <= 0. then invalid_arg "Fn.of_interface: non-positive barrier";
  coefficients ~phi_b_ev ~m_ox_rel:oxide.Gnrflash_materials.Oxide.m_ox

let current_density p ~field =
  let field = U.v_per_m field in
  if U.(field <=@ zero) then 0.
  else
    let quad = U.(fn_a p.a *@ field *@ field) in
    U.to_float (U.scale (exp (-.U.ratio (U.v_per_m p.b) field)) quad)
