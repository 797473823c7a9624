module C = Gnrflash_physics.Constants
module F = Gnrflash_physics.Fermi
module Quad = Gnrflash_numerics.Quadrature
module Tel = Gnrflash_telemetry.Telemetry

type transmission_model =
  | Wkb_model
  | Transfer_matrix_model of int
  | Exact_airy

(* The supply-function integral's two panels: 48 points below the Fermi
   level, 64 above it. Built once here and shared by every domain. *)
let rule_below_ef = Quad.gauss_legendre_rule 48
let rule_above_ef = Quad.gauss_legendre_rule 64

(* The barrier shape is fixed across the whole supply-function integral —
   only the energy varies between quadrature nodes — so the T(E) evaluator
   is built once per [current_density] call: the trapezoid is constructed a
   single time and, for the WKB model, the closed-form segment cache
   ({!Wkb.Cache}) replaces one adaptive-Simpson recursion per node. *)
let transmission_fn ~model ~phi_b ~field ~thickness ~m_b =
  match model with
  | Wkb_model ->
    let b = Barrier.trapezoidal ~phi_b ~v_ox:(field *. thickness) ~thickness ~m_eff:m_b in
    let cache = Wkb.Cache.make b in
    fun energy -> Wkb.Cache.transmission cache ~energy
  | Transfer_matrix_model steps ->
    let b = Barrier.trapezoidal ~phi_b ~v_ox:(field *. thickness) ~thickness ~m_eff:m_b in
    fun energy -> Transfer_matrix.transmission ~steps b ~energy
  | Exact_airy ->
    let phi2 = phi_b -. (C.q *. field *. thickness) in
    fun energy ->
      Triangular_exact.transmission ~phi1:phi_b ~phi2 ~thickness ~m_b ~m_e:C.m0 ~energy

let current_density ?(model = Wkb_model) ?(temp = C.room_temperature)
    ~phi_b ~field ~thickness ~m_b ~ef () =
  if field <= 0. then 0.
  else begin
    Tel.span "tsu_esaki/current_density" @@ fun () ->
    let transmission_at =
      transmission_fn ~model ~phi_b ~field ~thickness ~m_b
    in
    let qv = C.q *. field *. thickness in
    (* lint: allow L4 — the Tsu–Esaki supply prefactor q·m0·kB/(2π²ħ³) has
       no name in the units-layer per-algebra; kept as a raw SI product *)
    let prefactor = C.q *. C.m0 *. C.k_b *. temp
                    /. (2. *. Float.pi *. Float.pi *. (C.hbar ** 3.)) in
    (* N(E) includes the kT ln(...) factor; supply_difference already
       multiplies by kT, so divide the prefactor's kT back out. *)
    let prefactor = prefactor /. (C.k_b *. temp) in
    let integrand e =
      let t = transmission_at e in
      if t <= 0. then 0.
      else t *. F.supply_difference ~ef ~t:temp ~qv e
    in
    let kt = C.k_b *. temp in
    let e_max = max (phi_b +. (10. *. kt)) (ef +. (20. *. kt)) in
    (* The integrand is sharply peaked near ef for thick barriers; split the
       range so the quadrature resolves it. *)
    let split = min ef e_max in
    let j1 =
      if split > 1e-25 then Quad.gauss_legendre rule_below_ef integrand 1e-25 split else 0.
    in
    let j2 = Quad.gauss_legendre rule_above_ef integrand (max split 1e-25) e_max in
    prefactor *. (j1 +. j2)
  end
