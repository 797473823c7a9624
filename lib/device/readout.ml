module Mlgnr = Gnrflash_materials.Mlgnr
module Gnr = Gnrflash_materials.Gnr

type config = {
  vt0 : float;
  vread : float;
  vds : float;
  channel : Mlgnr.t;
  temp : float;
}

let default =
  {
    vt0 = 1.0;
    vread = 3.0;
    vds = 0.05;
    channel = Mlgnr.make (Gnr.make Gnr.Armchair 12) ~layers:3;
    temp = 300.;
  }

let threshold_voltage config t ~qfg = config.vt0 +. Fgt.threshold_shift t ~qfg

let read_current config t ~qfg =
  let vt = threshold_voltage config t ~qfg in
  let overdrive = config.vread -. vt in
  if overdrive <= 0. then 0.
  else begin
    (* gate overdrive moves the channel Fermi level through the coupling
       ratio; a simple linear map suffices for the on-state conductance *)
    let ef_ev = Fgt.gcr t *. overdrive in
    let g = Mlgnr.sheet_conductance config.channel ~ef_ev in
    g *. config.vds
  end
