let q = 1.602176634e-19
let h = 6.62607015e-34
let hbar = h /. (2. *. Float.pi)
let m0 = 9.1093837015e-31
let k_b = 1.380649e-23
let eps0 = 8.8541878128e-12
let ev = q
let v_fermi_graphene = 1.0e6
let a_cc = 0.142e-9
let a_graphene = sqrt 3. *. a_cc
let t_hopping = 2.7 *. ev
let room_temperature = 300.
let thermal_voltage t = k_b *. t /. q

(* Unit-typed view of the charge above (same bits, dimension checked at
   compile time — see Gnrflash_units). Formulas that stay raw-float must not
   multiply two of the raw values above directly (lint rule L4). *)
module U = Gnrflash_units

let q_qty = U.coulomb q
