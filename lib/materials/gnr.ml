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

let width r =
  match r.edge with
  | Armchair -> float_of_int (r.n - 1) *. sqrt 3. /. 2. *. C.a_cc
  | Zigzag -> ((1.5 *. float_of_int r.n) -. 1.) *. C.a_cc

let family r =
  match r.edge with
  | Armchair -> r.n mod 3
  | Zigzag -> -1

let theta r p = Float.pi *. float_of_int p /. float_of_int (r.n + 1)

let subband_energy r ~p ~k =
  if p < 1 || p > r.n then invalid_arg "Gnr.subband_energy: p out of range";
  match r.edge with
  | Armchair ->
    let ct = cos (theta r p) in
    let ka2 = k *. C.a_graphene /. 2. in
    C.t_hopping *. sqrt (1. +. (4. *. ct *. cos ka2) +. (4. *. ct *. ct))
  | Zigzag ->
    (* Flat edge band near E = 0 plus dispersive bulk bands; we expose the
       bulk subband expression with the transverse quantization of a zigzag
       ribbon (approximate hard-wall form). *)
    let ct = cos (theta r p) in
    let ka2 = k *. C.a_graphene /. 2. in
    C.t_hopping
    *. sqrt (abs_float (1. +. (4. *. ct *. cos ka2) +. (4. *. ct *. ct)))

let bandgap r =
  match r.edge with
  | Zigzag -> 0.
  | Armchair ->
    let best = ref infinity in
    for p = 1 to r.n do
      let gap = 2. *. C.t_hopping *. abs_float (1. +. (2. *. cos (theta r p))) in
      if gap < !best then best := gap
    done;
    !best

let bandgap_ev r = bandgap r /. C.ev

let empirical_gap_ev ~width_nm =
  if width_nm <= 0. then invalid_arg "Gnr.empirical_gap_ev: width <= 0";
  0.8 /. width_nm

let conducting_channels r ~ef_ev =
  let ef = abs_float ef_ev *. C.ev in
  let count = ref 0 in
  (match r.edge with
   | Zigzag ->
     (* edge band at E=0 always conducts *)
     incr count
   | Armchair -> ());
  for p = 1 to r.n do
    let edge_energy =
      match r.edge with
      | Armchair ->
        (* subband edge at k = 0 *)
        C.t_hopping *. abs_float (1. +. (2. *. cos (theta r p)))
      | Zigzag -> C.t_hopping *. abs_float (1. +. (2. *. cos (theta r p)))
    in
    if edge_energy <= ef then incr count
  done;
  !count
