module D = Gnrflash_device

type logic =
  | Programmed
  | Erased

type t = {
  device : D.Fgt.t;
  qfg : float;
  wear : D.Reliability.wear;
}

let make ?(qfg = 0.) device = { device; qfg; wear = D.Reliability.fresh }

let dvt c = D.Fgt.threshold_shift c.device ~qfg:c.qfg

let to_bit = function Programmed -> 0 | Erased -> 1

let apply_bias_pulse ~reliability ~pulse engine c =
  if c.wear.D.Reliability.broken then Error "Cell: oxide broken"
  else
    match D.Program_erase.apply_pulse engine ~qfg:c.qfg pulse with
    | Error e -> Error (Gnrflash_resilience.Solver_error.to_string e)
    | Ok o ->
      (* effective stress field: the tunnel-oxide field at the pulse's
         midpoint charge (the instantaneous initial field decays within
         nanoseconds and would over-penalize the whole pulse) *)
      let q_mid = 0.5 *. (c.qfg +. o.D.Program_erase.qfg_after) in
      let field =
        abs_float
          (D.Fgt.tunnel_field c.device ~vgs:pulse.D.Program_erase.vgs ~qfg:q_mid)
      in
      let wear =
        D.Reliability.after_pulse reliability c.wear
          ~injected:o.D.Program_erase.injected_charge ~area:c.device.D.Fgt.area
          ~field:(max field 1e6)
      in
      Ok { c with qfg = o.D.Program_erase.qfg_after; wear }

let program ?(pulse = D.Program_erase.default_program_pulse)
    ?(reliability = D.Reliability.default) engine c =
  apply_bias_pulse ~reliability ~pulse engine c

let erase ?(pulse = D.Program_erase.default_erase_pulse)
    ?(reliability = D.Reliability.default) engine c =
  apply_bias_pulse ~reliability ~pulse engine c

let read ?(config = D.Readout.default) c =
  let i = D.Readout.read_current config c.device ~qfg:c.qfg in
  let i_on = D.Readout.read_current config c.device ~qfg:0. in
  if i < 0.5 *. i_on then Programmed else Erased

let effective_vt ?(config = D.Readout.default) ?(reliability = D.Reliability.default) c =
  D.Readout.threshold_voltage config c.device ~qfg:c.qfg
  +. D.Reliability.For_testing.vt_drift reliability c.wear

module For_testing = struct
  let effective_vt = effective_vt

  let state ?(dvt_threshold = 1.0) c = if dvt c > dvt_threshold then Programmed else Erased
end
