type model = {
  qbd0 : float;
  e0 : float;
  trap_per_charge : float;
  dvt_per_trap : float;
}

(* Calibration: qbd(10 MV/cm) = 1e6 C/m^2 (100 C/cm^2-class intrinsic
   oxide), falling one decade per 2.5 MV/cm — which puts the paper's
   18 MV/cm programming condition at ~6e2 C/m^2, i.e. the textbook
   1e4-1e5 P/E cycles for a flash tunnel oxide. *)
let default =
  {
    qbd0 = 1e6 *. exp (1e9 /. (2.5e8 /. log 10.));
    e0 = 2.5e8 /. log 10.;
    trap_per_charge = 1e-5;
    dvt_per_trap = 1e-18 (* 1 V per 1e18 traps/m^2 *);
  }

type wear = {
  fluence : float;
  traps : float;
  cycles : int;
  broken : bool;
}

let fresh = { fluence = 0.; traps = 0.; cycles = 0; broken = false }

let qbd m ~field =
  if field <= 0. then invalid_arg "Reliability.qbd: field <= 0";
  m.qbd0 *. exp (-.field /. m.e0)

let after_pulse m w ~injected ~area ~field =
  if injected < 0. || area <= 0. then invalid_arg "Reliability.after_pulse: bad arguments";
  let fluence = w.fluence +. (injected /. area) in
  let electrons_per_area = injected /. area /. Gnrflash_physics.Constants.q in
  let traps = w.traps +. (m.trap_per_charge *. electrons_per_area) in
  let broken = w.broken || fluence >= qbd m ~field in
  { fluence; traps; cycles = w.cycles + 1; broken }

let vt_drift m w = m.dvt_per_trap *. w.traps

let endurance_cycles m ~charge_per_cycle ~area ~field =
  if charge_per_cycle <= 0. then invalid_arg "Reliability.endurance_cycles: charge <= 0";
  qbd m ~field /. (charge_per_cycle /. area)

module For_testing = struct
  let vt_drift = vt_drift
end
