(* Raw SI floats. Formulas that stay raw-float must not multiply two of
   these directly (lint rule L4): the typed Gnrflash_units layer carries
   the dimensions. *)
let q = 1.602176634e-19
let h = 6.62607015e-34
let hbar = h /. (2. *. Float.pi)
let m0 = 9.1093837015e-31
let k_b = 1.380649e-23
let eps0 = 8.8541878128e-12
let ev = q
let v_fermi_graphene = 1.0e6
let t_hopping = 2.7 *. ev
let room_temperature = 300.
