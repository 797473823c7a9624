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

let make ?(vs = U.volt 0.) ?(control_oxide = Oxide.sio2) ~gcr ~xto ~xco
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
  let caps = Capacitance.of_gcr ~gcr ~cfc in
  {
    caps;
    area = U.to_float area;
    xto = U.to_float xto;
    xco = U.to_float xco;
    tunnel_fn = Fn.of_interface paper_electrode Oxide.sio2;
    control_fn = Fn.of_interface paper_electrode control_oxide;
    vs = U.to_float vs;
  }

let paper_default =
  make ~gcr:0.6 ~xto:(U.metre 5e-9) ~xco:(U.metre 10e-9)
    ~area:(U.area (U.metre 32e-9) (U.metre 32e-9)) ()

let with_gcr t g =
  let caps = Capacitance.of_gcr ~gcr:g ~cfc:(Capacitance.cfc_qty t.caps) in
  { t with caps }

let with_xto t xto =
  if xto <= 0. then invalid_arg "Fgt.with_xto: non-positive thickness";
  { t with xto }

let gcr t = Capacitance.gcr t.caps
let ct t = Capacitance.total t.caps

(* The unit-typed bodies of eqs (1), (3), (6) and (7). [Capacitance.total]
   and [Fn.current_density] are raw floats; [ct_q] and [fn_density] are
   where they cross into the typed world. *)
let ct_q t = U.farad (ct t)

let fn_density p field = U.a_per_m2 (Fn.current_density p ~field:(U.to_float field))

let vfg_q t ~vgs ~qfg = U.(scale (gcr t) vgs +@ (qfg //@ ct_q t))

let tunnel_field_at t vfg = U.((vfg -@ volt t.vs) /@ metre t.xto)

let control_field_at t ~vgs vfg = U.((vgs -@ vfg) /@ metre t.xco)

(* Both FN paths at floating-gate potential [vfg]: injection through the
   tunnel oxide plus from the control gate, extraction to the control gate
   plus back to the channel, each only for a field of its polarity. *)
let j_in_at t ~vgs vfg =
  let et = tunnel_field_at t vfg in
  let ec = control_field_at t ~vgs vfg in
  let from_channel =
    if U.(et >@ zero) then fn_density t.tunnel_fn et else U.a_per_m2 0.
  in
  let from_gate =
    if U.(ec <@ zero) then fn_density t.control_fn (U.neg ec) else U.a_per_m2 0.
  in
  U.(from_channel +@ from_gate)

let j_out_at t ~vgs vfg =
  let et = tunnel_field_at t vfg in
  let ec = control_field_at t ~vgs vfg in
  let to_gate = if U.(ec >@ zero) then fn_density t.control_fn ec else U.a_per_m2 0. in
  let to_channel =
    if U.(et <@ zero) then fn_density t.tunnel_fn (U.neg et) else U.a_per_m2 0.
  in
  U.(to_gate +@ to_channel)

let vfg t ~vgs ~qfg = U.to_float (vfg_q t ~vgs:(U.volt vgs) ~qfg:(U.coulomb qfg))

let tunnel_field t ~vgs ~qfg =
  U.to_float (tunnel_field_at t (vfg_q t ~vgs:(U.volt vgs) ~qfg:(U.coulomb qfg)))

let j_in t ~vgs ~qfg =
  let vgs = U.volt vgs in
  U.to_float (j_in_at t ~vgs (vfg_q t ~vgs ~qfg:(U.coulomb qfg)))

let j_out t ~vgs ~qfg =
  let vgs = U.volt vgs in
  U.to_float (j_out_at t ~vgs (vfg_q t ~vgs ~qfg:(U.coulomb qfg)))

let charging_rate t ~vgs ~vfg =
  let vgs = U.volt vgs and vfg = U.volt vfg in
  U.to_float
    (U.neg U.((j_in_at t ~vgs vfg -@ j_out_at t ~vgs vfg) *@ square_metre t.area))

let threshold_shift t ~qfg =
  U.to_float U.(neg (coulomb qfg) //@ Capacitance.cfc_qty t.caps)

let qfg_for_threshold_shift t ~dvt =
  U.to_float U.(Capacitance.cfc_qty t.caps *@ neg (volt dvt))

module For_testing = struct
  let control_field t ~vgs ~qfg =
    let vgs = U.volt vgs in
    U.to_float (control_field_at t ~vgs (vfg_q t ~vgs ~qfg:(U.coulomb qfg)))

  let dqfg_dt t ~vgs ~qfg = charging_rate t ~vgs ~vfg:(vfg t ~vgs ~qfg)
end
