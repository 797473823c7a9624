(* The whole module is identities over float: ['d qty = float] here,
   [private float] in the interface, so every constructor/accessor
   disappears at compile time and the checked operators compile to the
   same IEEE op as the raw-float code they replace (bit-identical
   results, enforced by the golden qcheck properties in the test suite). *)

type 'd qty = float

type volt
type metre
type m2
type second
type joule
type ev
type coulomb

type ('num, 'den) per

type v_per_m = (volt, metre) per
type farad = (coulomb, volt) per
type f_per_m2 = (farad, m2) per
type ampere = (coulomb, second) per
type a_per_m2 = (ampere, m2) per
type c_per_m2 = (coulomb, m2) per
type fn_a = ((a_per_m2, v_per_m) per, v_per_m) per

let volt x = x
let metre x = x
let square_metre x = x
let ev x = x
let coulomb x = x
let farad x = x
let v_per_m x = x
let f_per_m2 x = x
let a_per_m2 x = x
let c_per_m2 x = x
let fn_a x = x

let to_float x = x
let zero = 0.

let ( +@ ) = ( +. )
let ( -@ ) = ( -. )
let scale c x = c *. x
let neg x = -.x
let ratio a b = a /. b

let ( *@ ) = ( *. )
let ( /@ ) = ( /. )
let ( //@ ) = ( /. )
let area w l = w *. l

let ( <@ ) (a : float) b = a < b
let ( <=@ ) (a : float) b = a <= b
let ( >@ ) (a : float) b = a > b

(* The 2019 SI definition fixes the elementary charge exactly; this
   literal must stay equal to [Constants.q]/[Constants.ev] (asserted in
   test_units) so the typed eV↔J crossing is bit-identical to the raw
   [x *. Constants.ev] boundary shims. *)
let si_elementary_charge = 1.602176634e-19

let ev_to_joule x = x *. si_elementary_charge

let areal_displacement c ~v = c *. v
let voltage_across_areal sigma c = sigma /. c
