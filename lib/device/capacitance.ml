module C = Gnrflash_physics.Constants
module U = Gnrflash_units

type t = {
  cfc : float;
  cfs : float;
  cfb : float;
  cfd : float;
}

let cfc_qty t = U.farad t.cfc

let make ~cfc ~cfs ~cfb ~cfd =
  if U.(cfc <@ zero) || U.(cfs <@ zero) || U.(cfb <@ zero) || U.(cfd <@ zero) then
    invalid_arg "Capacitance.make: negative component";
  if U.(cfc +@ cfs +@ cfb +@ cfd <=@ zero) then
    invalid_arg "Capacitance.make: zero total";
  {
    cfc = U.to_float cfc;
    cfs = U.to_float cfs;
    cfb = U.to_float cfb;
    cfd = U.to_float cfd;
  }

let total_q t = U.(cfc_qty t +@ farad t.cfs +@ farad t.cfb +@ farad t.cfd)
let total t = U.to_float (total_q t)

let gcr t = U.ratio (cfc_qty t) (total_q t)

let of_gcr ~gcr ~cfc =
  if gcr <= 0. || gcr > 1. then invalid_arg "Capacitance.of_gcr: gcr out of (0, 1]";
  if U.(cfc <=@ zero) then invalid_arg "Capacitance.of_gcr: cfc <= 0";
  let rest = U.scale ((1. /. gcr) -. 1.) cfc in
  make ~cfc ~cfs:(U.scale 0.25 rest) ~cfb:(U.scale 0.5 rest) ~cfd:(U.scale 0.25 rest)

let parallel_plate_q ~eps_r ~area ~thickness =
  if U.(thickness <=@ zero) then invalid_arg "Capacitance.parallel_plate: thickness <= 0";
  (* no [U.(...)] open here: it would shadow the [area] argument with [U.area] *)
  if U.( <=@ ) area U.zero then invalid_arg "Capacitance.parallel_plate: area <= 0";
  (* ε₀·εᵣ·A/t evaluated in the historical factor order so derived
     capacitances keep their bits; the F·m intermediate of (ε₀εᵣ)·A has no
     name in the per-algebra, so this is a sanctioned boundary computation. *)
  U.farad (C.eps0 *. eps_r *. U.to_float area /. U.to_float thickness)

let with_quantum_capacitance t ~cq =
  if cq <= 0. then invalid_arg "Capacitance.with_quantum_capacitance: cq <= 0";
  (* series combination cfc·cq/(cfc + cq): the F² intermediate has no name
     in the per-algebra, so this is computed raw. *)
  { t with cfc = t.cfc *. cq /. (t.cfc +. cq) }
