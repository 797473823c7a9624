module C = Gnrflash_physics.Constants

type t = {
  ribbon : Gnr.t;
  layers : int;
}

let make ribbon ~layers =
  if layers < 1 then invalid_arg "Mlgnr.make: layers < 1";
  { ribbon; layers }

let screening_factor = 0.53

let quantum_capacitance s ~ef_ev ~temp =
  let ef = ef_ev *. C.ev in
  let cq1 = Graphene.quantum_capacitance ~ef ~t:temp in
  (* geometric series of screened layer contributions *)
  let rec add acc weight remaining =
    if remaining = 0 then acc
    else add (acc +. (weight *. cq1)) (weight *. screening_factor) (remaining - 1)
  in
  add 0. 1. s.layers

let storable_charge s ~ef_max_ev =
  if ef_max_ev < 0. then invalid_arg "Mlgnr.storable_charge: negative ef_max";
  let ef = ef_max_ev *. C.ev in
  (* ∫0^Ef DOS(E) dE for linear DOS = Ef² / (π ħ² vF²); per layer, with the
     same screening weights as the quantum capacitance. *)
  (* lint: allow L4 — (ħ·v_F)² is a derived constant outside the
     units-layer per-algebra *)
  let per_layer = ef *. ef /. (Float.pi *. (C.hbar *. C.v_fermi_graphene) ** 2.) in
  let rec add acc weight remaining =
    if remaining = 0 then acc
    else add (acc +. (weight *. per_layer)) (weight *. screening_factor) (remaining - 1)
  in
  C.q *. add 0. 1. s.layers

let sheet_conductance s ~ef_ev =
  let channels = Gnr.conducting_channels s.ribbon ~ef_ev in
  let g0 = 2. *. C.q *. C.q /. C.h in
  float_of_int (s.layers * channels) *. g0
