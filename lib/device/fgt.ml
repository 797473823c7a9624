module Fn = Gnrflash_quantum.Fn
module Oxide = Gnrflash_materials.Oxide
module Wf = Gnrflash_materials.Workfunction
module U = Gnrflash_units

type t = {
  caps : Capacitance.t;
  area : float;
  xto : float;
  xco : float;
  tunnel_fn : Fn.params;
  control_fn : Fn.params;
  vs : float;
}

(* The paper quotes the canonical Si/SiO2 numbers (phi_B = 3.2 eV,
   m_ox = 0.42 m0) for its J-V analysis; a work function of 4.1 eV against
   SiO2's 0.9 eV affinity reproduces that barrier. *)
let paper_electrode = Wf.Custom ("paper-default", 4.1)

let area_qty t = U.square_metre t.area
let xto_qty t = U.metre t.xto
let xco_qty t = U.metre t.xco
let vs_qty t = U.volt t.vs

let make_q ?(vs = U.volt 0.) ?(control_oxide = Oxide.sio2) ~gcr ~xto ~xco
    ~(area : U.m2 U.qty) () =
  if U.(xto <=@ zero) || U.(xco <=@ zero) then
    invalid_arg "Fgt.make: non-positive oxide thickness";
  if U.( <=@ ) area U.zero then invalid_arg "Fgt.make: non-positive area";
  if U.(xco <@ xto) then invalid_arg "Fgt.make: control oxide thinner than tunnel oxide";
  (* the control-gate interface is its own dielectric: both the blocking FN
     barrier and the CFC parallel plate come from it, not the SiO2 tunnel
     oxide *)
  let cfc =
    Capacitance.parallel_plate_q ~eps_r:control_oxide.Oxide.eps_r ~area ~thickness:xco
  in
  let caps = Capacitance.of_gcr_q ~gcr ~cfc in
  {
    caps;
    area = U.to_float area;
    xto = U.to_float xto;
    xco = U.to_float xco;
    tunnel_fn = Fn.of_interface paper_electrode Oxide.sio2;
    control_fn = Fn.of_interface paper_electrode control_oxide;
    vs = U.to_float vs;
  }

let make ?(vs = 0.) ?control_oxide ~gcr ~xto ~xco ~area () =
  make_q ~vs:(U.volt vs) ?control_oxide ~gcr
    ~xto:(U.metre xto) ~xco:(U.metre xco) ~area:(U.square_metre area) ()

let paper_default =
  make_q ~gcr:0.6 ~xto:(U.metre 5e-9) ~xco:(U.metre 10e-9)
    ~area:(U.area (U.metre 32e-9) (U.metre 32e-9)) ()

let with_gcr t g =
  let caps = Capacitance.of_gcr_q ~gcr:g ~cfc:(Capacitance.cfc_qty t.caps) in
  { t with caps }

let with_xto t xto =
  if xto <= 0. then invalid_arg "Fgt.with_xto: non-positive thickness";
  { t with xto }

let gcr t = Capacitance.gcr t.caps
let ct t = Capacitance.total t.caps
let ct_qty t = Capacitance.total_q t.caps

let vfg_q t ~vgs ~qfg = U.(scale (gcr t) vgs +@ (qfg //@ ct_qty t))

let vfg t ~vgs ~qfg = U.to_float (vfg_q t ~vgs:(U.volt vgs) ~qfg:(U.coulomb qfg))

let tunnel_field_q t ~vgs ~qfg = U.((vfg_q t ~vgs ~qfg -@ vs_qty t) /@ xto_qty t)

let tunnel_field t ~vgs ~qfg =
  U.to_float (tunnel_field_q t ~vgs:(U.volt vgs) ~qfg:(U.coulomb qfg))

let control_field_q t ~vgs ~qfg = U.((vgs -@ vfg_q t ~vgs ~qfg) /@ xco_qty t)

let control_field t ~vgs ~qfg =
  U.to_float (control_field_q t ~vgs:(U.volt vgs) ~qfg:(U.coulomb qfg))

let j_in_q t ~vgs ~qfg =
  let et = tunnel_field_q t ~vgs ~qfg in
  let ec = control_field_q t ~vgs ~qfg in
  let from_channel =
    if U.(et >@ zero) then Fn.current_density_q t.tunnel_fn ~field:et else U.a_per_m2 0.
  in
  let from_gate =
    if U.(ec <@ zero) then Fn.current_density_q t.control_fn ~field:(U.neg ec)
    else U.a_per_m2 0.
  in
  U.(from_channel +@ from_gate)

let j_in t ~vgs ~qfg = U.to_float (j_in_q t ~vgs:(U.volt vgs) ~qfg:(U.coulomb qfg))

let j_out_q t ~vgs ~qfg =
  let et = tunnel_field_q t ~vgs ~qfg in
  let ec = control_field_q t ~vgs ~qfg in
  let to_gate =
    if U.(ec >@ zero) then Fn.current_density_q t.control_fn ~field:ec else U.a_per_m2 0.
  in
  let to_channel =
    if U.(et <@ zero) then Fn.current_density_q t.tunnel_fn ~field:(U.neg et)
    else U.a_per_m2 0.
  in
  U.(to_gate +@ to_channel)

let j_out t ~vgs ~qfg = U.to_float (j_out_q t ~vgs:(U.volt vgs) ~qfg:(U.coulomb qfg))

let dqfg_dt_q t ~vgs ~qfg =
  U.neg U.((j_in_q t ~vgs ~qfg -@ j_out_q t ~vgs ~qfg) *@ area_qty t)

let dqfg_dt t ~vgs ~qfg = U.to_float (dqfg_dt_q t ~vgs:(U.volt vgs) ~qfg:(U.coulomb qfg))

let threshold_shift_q t ~qfg = U.(neg qfg //@ Capacitance.cfc_qty t.caps)

let threshold_shift t ~qfg = U.to_float (threshold_shift_q t ~qfg:(U.coulomb qfg))

let qfg_for_threshold_shift_q t ~dvt = U.(Capacitance.cfc_qty t.caps *@ neg dvt)

let qfg_for_threshold_shift t ~dvt =
  U.to_float (qfg_for_threshold_shift_q t ~dvt:(U.volt dvt))

module For_testing = struct
  let make = make
  let control_field = control_field
  let dqfg_dt_q = dqfg_dt_q
  let dqfg_dt = dqfg_dt
end
