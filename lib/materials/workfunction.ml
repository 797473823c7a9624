type electrode =
  | N_poly_si
  | P_poly_si
  | Aluminium
  | Titanium_nitride
  | Graphene
  | Mlgnr of int
  | Custom of string * float

let graphene_wf = 4.56
let graphite_wf = 4.6

let work_function = function
  | N_poly_si -> 4.05 (* at the Si electron affinity for n+ *)
  | P_poly_si -> 5.17
  | Aluminium -> 4.28
  | Titanium_nitride -> 4.7
  | Graphene -> graphene_wf
  | Mlgnr n ->
    (* Exponential approach from monolayer to graphite with layer count
       (Hibino et al. 2009 measured ~0.05 eV span over 1..4 layers). *)
    let n = max 1 n in
    graphite_wf -. ((graphite_wf -. graphene_wf) *. exp (-.float_of_int (n - 1) /. 2.))
  | Custom (_, wf) -> wf

let barrier_height e (ox : Oxide.t) = work_function e -. ox.electron_affinity
