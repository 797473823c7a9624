(* ln(1 + exp x) computed without overflow. *)
let log1p_exp x =
  if x > 40. then x
  else if x < -40. then exp x
  else log1p (exp x)

let supply_difference ~ef ~t ~qv e =
  if t <= 0. then invalid_arg "Fermi.supply_difference: t <= 0";
  let kt = Constants.k_b *. t in
  let x1 = (ef -. e) /. kt in
  let x2 = (ef -. e -. qv) /. kt in
  kt *. (log1p_exp x1 -. log1p_exp x2)
