module C = Gnrflash_physics.Constants

(* lint: allow L4 — ħ·v_F (J·m) is a derived constant outside the
   units-layer per-algebra, which only names the FN/FGT dimensions *)
let hv = C.hbar *. C.v_fermi_graphene

let quantum_capacitance ~ef ~t =
  let pref = 2. *. C.q *. C.q /. (Float.pi *. hv *. hv) in
  if t <= 0. then pref *. abs_float ef
  else begin
    let kt = C.k_b *. t in
    let x = ef /. kt in
    (* ln(2(1+cosh x)) computed stably for large |x| *)
    let lncosh_term =
      if abs_float x > 40. then abs_float x
      else log (2. *. (1. +. cosh x))
    in
    pref *. kt *. lncosh_term
  end
