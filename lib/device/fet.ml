module Mlgnr = Gnrflash_materials.Mlgnr

type params = {
  vt0 : float;
  ss_mv_dec : float;
  i_off : float;
  g_on : float;
  v_sat : float;
}

let of_channel stack =
  (* on-state Fermi level ~1 eV above midgap: enough to open the first
     subband of a ~1.6 eV-gap ribbon in every layer *)
  let g = Mlgnr.sheet_conductance stack ~ef_ev:1.0 in
  {
    vt0 = 1.0;
    ss_mv_dec = 70.;
    i_off = 1e-12;
    g_on = g;
    v_sat = 0.3;
  }

let default =
  of_channel (Mlgnr.make (Gnrflash_materials.Gnr.make Gnrflash_materials.Gnr.Armchair 12)
                ~layers:3)

(* Drain-side saturation factor: linear for small VDS, saturating at
   v_sat. *)
let drain_factor p ~vds = p.v_sat *. (1. -. exp (-.vds /. p.v_sat))

let drain_current p ~vgs ~vds =
  if vds <= 0. then 0.
  else begin
    let overdrive = vgs -. p.vt0 in
    let df = drain_factor p ~vds in
    (* above-threshold current at the band edge, used as the subthreshold
       matching point so the curve is continuous at VGS = VT *)
    let on_current ov = p.g_on *. ov *. df /. p.v_sat in
    if overdrive >= p.v_sat then on_current overdrive
    else begin
      (* at the joint (ov = v_sat) the current is g_on * df; below it decay
         exponentially with the configured swing *)
      let joint = on_current p.v_sat in
      let decades = (overdrive -. p.v_sat) /. (p.ss_mv_dec /. 1e3) in
      let sub = joint *. (10. ** decades) in
      max sub p.i_off
    end
  end

let transfer_curve p ~dvt ~vds ~vgs:vgs_grid =
  let shifted = { p with vt0 = p.vt0 +. dvt } in
  Array.map (fun vgs -> (vgs, drain_current shifted ~vgs ~vds)) vgs_grid

let read_window p ~dvt_programmed ~vread ~vds =
  let erased = drain_current p ~vgs:vread ~vds in
  let programmed =
    drain_current { p with vt0 = p.vt0 +. dvt_programmed } ~vgs:vread ~vds
  in
  erased /. max programmed p.i_off

let subthreshold_swing p ~vds =
  (* probe a few decades below the on-state joint, safely above the
     leakage floor *)
  let vg0 = p.vt0 +. p.v_sat -. 0.25 in
  let dv = 0.01 in
  let i1 = drain_current p ~vgs:vg0 ~vds in
  let i2 = drain_current p ~vgs:(vg0 +. dv) ~vds in
  dv /. (log10 i2 -. log10 i1) *. 1e3
