module C = Gnrflash_physics.Constants
module Quad = Gnrflash_numerics.Quadrature
module Tel = Gnrflash_telemetry.Telemetry

let action_integral b ~energy =
  match Barrier.classical_turning_points b ~energy with
  | None -> 0.
  | Some (x1, x2) ->
    let integrand x =
      let v = Barrier.height_at b x -. energy in
      if v <= 0. then 0. else sqrt (2. *. b.Barrier.m_eff *. v)
    in
    (* absolute tolerance scaled to the integral's natural magnitude
       k_max * width, which is ~1e-33 in SI units *)
    let v_max = Barrier.max_height b -. energy in
    let scale = sqrt (2. *. b.Barrier.m_eff *. max v_max 1e-30) *. (x2 -. x1) in
    let k =
      Tel.span "wkb/action_integral" @@ fun () ->
      Quad.adaptive_simpson ~tol:(1e-9 *. scale) integrand x1 x2
    in
    2. /. C.hbar *. k

let transmission b ~energy =
  let a = action_integral b ~energy in
  if a <= 0. then 1. else exp (-.a)

(* ---------- closed-form action on the piecewise-linear barrier ---------- *)

(* A [Barrier.t] is piecewise linear by construction, so on each segment
   the action integrand √(2m(V−E)) integrates in closed form:

     ∫ √(V−E) dx = (2/3)·[(V_b−E)^{3/2} − (V_a−E)^{3/2}] / slope

   (clamping endpoint heights below E to zero handles the classical
   turning point landing inside the segment — the (·)^{3/2} term of the
   sub-threshold endpoint simply vanishes). Flat segments reduce to
   width·√(V−E). The sum over segments equals the adaptive
   {!action_integral} to its quadrature tolerance but is exact, costs
   O(segments) with no function evaluations, and is a pure function of
   the node table. *)

module Cache = struct
  type seg = {
    width : float;
    va : float;
    vb : float;
    slope : float;
  }

  type t = {
    segs : seg array;
    sqrt2m : float;
    v_max : float;
  }

  let make b =
    Tel.count "wkb/cache_build";
    let nodes = b.Barrier.nodes in
    let segs =
      Array.init
        (Array.length nodes - 1)
        (fun i ->
          let xa, va = nodes.(i) and xb, vb = nodes.(i + 1) in
          let width = xb -. xa in
          { width; va; vb; slope = (vb -. va) /. width })
    in
    { segs; sqrt2m = sqrt (2. *. b.Barrier.m_eff); v_max = Barrier.max_height b }

  let seg_action ~sqrt2m ~energy s =
    let ua = s.va -. energy and ub = s.vb -. energy in
    if ua <= 0. && ub <= 0. then 0.
    else if Float.equal s.slope 0. then s.width *. sqrt2m *. sqrt ua
    else
      let fa = if ua > 0. then ua *. sqrt ua else 0. in
      let fb = if ub > 0. then ub *. sqrt ub else 0. in
      sqrt2m *. (2. /. 3.) *. ((fb -. fa) /. s.slope)

  let raw_action c ~energy =
    if energy >= c.v_max then 0.
    else begin
      let acc = ref 0. in
      Array.iter (fun s -> acc := !acc +. seg_action ~sqrt2m:c.sqrt2m ~energy s) c.segs;
      2. /. C.hbar *. !acc
    end

  let action c ~energy =
    Tel.count "wkb/cache_hit";
    raw_action c ~energy

  let transmission c ~energy =
    let a = action c ~energy in
    if a <= 0. then 1. else exp (-.a)
end

module For_testing = struct
  let transmission_triangular ~phi_b ~field ~m_eff =
    if phi_b <= 0. || field <= 0. || m_eff <= 0. then
      invalid_arg "Wkb.transmission_triangular: non-positive argument";
    let b_exp =
      4. *. sqrt (2. *. m_eff) *. (phi_b ** 1.5) /. (3. *. C.hbar *. C.q *. field)
    in
    exp (-.b_exp)
end
