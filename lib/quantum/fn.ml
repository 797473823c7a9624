module C = Gnrflash_physics.Constants
module U = Gnrflash_units
module Roots = Gnrflash_numerics.Roots
module Tel = Gnrflash_telemetry.Telemetry

type params = {
  a : float;
  b : float;
  phi_b_ev : float;
  m_ox_rel : float;
}

let a_qty p = U.fn_a p.a
let b_qty p = U.v_per_m p.b

let coefficients_q ~phi_b ~m_ox_rel =
  if U.(phi_b <=@ zero) then invalid_arg "Fn.coefficients: phi_b <= 0";
  if m_ox_rel <= 0. then invalid_arg "Fn.coefficients: m_ox <= 0";
  let phi_j = U.to_float (U.ev_to_joule phi_b) in
  let m_ox = m_ox_rel *. C.m0 in
  let a = C.q ** 3. *. C.m0 /. (8. *. Float.pi *. C.h *. m_ox *. phi_j) in
  let b = 8. *. Float.pi *. sqrt (2. *. m_ox) *. (phi_j ** 1.5) /. (3. *. C.q *. C.h) in
  { a; b; phi_b_ev = U.to_float phi_b; m_ox_rel }

let coefficients ~phi_b_ev ~m_ox_rel = coefficients_q ~phi_b:(U.ev phi_b_ev) ~m_ox_rel

let of_interface electrode oxide =
  let phi_b_ev = Gnrflash_materials.Workfunction.barrier_height electrode oxide in
  if phi_b_ev <= 0. then invalid_arg "Fn.of_interface: non-positive barrier";
  coefficients ~phi_b_ev ~m_ox_rel:oxide.Gnrflash_materials.Oxide.m_ox

let current_density_q p ~field =
  if U.(field <=@ zero) then U.a_per_m2 0.
  else
    let quad = U.(a_qty p *@ field *@ field) in
    U.scale (exp (-.U.ratio (b_qty p) field)) quad

let current_density p ~field =
  U.to_float (current_density_q p ~field:(U.v_per_m field))

let current_from_voltages_q p ~vfg ~vs ~xto =
  if U.(xto <=@ zero) then invalid_arg "Fn.current_from_voltages: xto <= 0";
  let v = U.(vfg -@ vs) in
  if U.(v <=@ zero) then U.a_per_m2 0.
  else current_density_q p ~field:U.(v /@ xto)

let current_from_voltages p ~vfg ~vs ~xto =
  U.to_float
    (current_from_voltages_q p ~vfg:(U.volt vfg) ~vs:(U.volt vs) ~xto:(U.metre xto))

let paper_eq7 p ~vfg ~xto = current_from_voltages p ~vfg ~vs:0. ~xto

(* Total on the full real line, mirroring [current_density]: a non-positive
   field carries no forward injection, so J = 0 and log10 J = -inf. *)
let log10_current p ~field =
  if field <= 0. then neg_infinity
  else log10 p.a +. (2. *. log10 field) -. (p.b /. field /. log 10.)

let field_for_current p ~j =
  if j <= 0. then Error "Fn.field_for_current: j <= 0"
  else
    Tel.span "fn/field_for_current" @@ fun () -> begin
    (* solve log10 J(E) = log10 j; ln J is monotone increasing in E *)
    let target = log10 j in
    let f e = log10_current p ~field:e -. target in
    (* initial guess: ignore the E² factor, E ~ B / ln(A E²/j) — just bracket
       geometrically from a field where J is tiny to one where it is huge. *)
    let to_string = Gnrflash_resilience.Solver_error.to_string in
    match Roots.bracket_root f (p.b /. 100.) (p.b *. 2.) with
    | Error e -> Error (to_string e)
    | Ok (lo, hi) ->
      (match Roots.brent f lo hi with
       | Ok e -> Ok e
       | Error e -> Error (to_string e))
    end
