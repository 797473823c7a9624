(* L4 fixture: multiplying two raw Constants floats bypasses the units
   layer ("unit laundering"). *)

module C = Gnrflash_physics.Constants
module U = Gnrflash_units

let laundered () = C.q *. C.ev (* EXPECT L4 *)

let allowed () =
  (* lint: allow L4 — fixture: derived constant *)
  C.hbar *. C.k_b (* EXPECT-SUPPRESSED L4 *)

let typed () = U.to_float (U.coulomb C.q)
