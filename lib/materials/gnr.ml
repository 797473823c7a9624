module C = Gnrflash_physics.Constants

type edge =
  | Armchair
  | Zigzag

type t = {
  edge : edge;
  n : int;
}

let make edge n =
  if n < 2 then invalid_arg "Gnr.make: n < 2";
  { edge; n }

let theta r p = Float.pi *. float_of_int p /. float_of_int (r.n + 1)

let conducting_channels r ~ef_ev =
  let ef = abs_float ef_ev *. C.ev in
  (* a zigzag ribbon's edge band at E = 0 always conducts *)
  let count = ref (match r.edge with Zigzag -> 1 | Armchair -> 0) in
  for p = 1 to r.n do
    (* subband edge at k = 0 *)
    let edge_energy = C.t_hopping *. abs_float (1. +. (2. *. cos (theta r p))) in
    if edge_energy <= ef then incr count
  done;
  !count
