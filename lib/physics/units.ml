let nm x = x *. 1e-9
let to_nm x = x *. 1e9

let ev_to_joule x = x *. Constants.ev
let joule_to_ev x = x /. Constants.ev

let mv_per_cm x = x *. 1e8

let to_a_per_cm2 x = x /. 1e4

let years x = x *. 365.25 *. 86400.
