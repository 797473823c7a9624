module D = Gnrflash_device
module S = Cell_store
module Tel = Gnrflash_telemetry.Telemetry
module Err = Gnrflash_resilience.Solver_error
module Q = Gnrflash_quantum

type config = {
  vgs_program : float;
  vds_program : float;
  drain_current : float;
  pulse_width : float;
  lateral_field : float;
  che : Q.Che.params;
}

let default_config =
  {
    vgs_program = 10.;
    vds_program = 5.;
    drain_current = 0.5e-3;
    pulse_width = 1e-6;
    lateral_field = 5e8;
    che = Q.Che.default_si;
  }

type t = {
  config : config;
  store : S.t; (* one word line, struct-of-arrays *)
  ememo : S.memo; (* erase-pulse outcomes over the word line's lifetime *)
  mutable programs : int;
  mutable total_supply_charge : float;
}

let make ?(config = default_config) device ~cells =
  if cells < 1 then invalid_arg "Nor_array.make: cells < 1";
  {
    config;
    store = S.create ~n:cells device;
    ememo = S.memo ();
    programs = 0;
    total_supply_charge = 0.;
  }

let length t = S.length t.store
let cell t i = S.view t.store i
let programs t = t.programs
let total_supply_charge t = t.total_supply_charge

let check_index t i =
  if i < 0 || i >= S.length t.store then Error "Nor_array: index out of range"
  else Ok ()

let program_bit t ~index =
  match check_index t index with
  | Error e -> Error e
  | Ok () ->
    if S.broken t.store index then Error "Nor_array: broken cell"
    else begin
      let cfg = t.config in
      let device = S.device t.store in
      let q0 = S.qfg t.store index in
      let i_gate =
        Q.Che.gate_current cfg.che ~drain_current:cfg.drain_current
          ~lateral_field:cfg.lateral_field
      in
      let dose = i_gate *. cfg.pulse_width in
      (* electrons land on the FG; injection self-limits once the FG
         potential has collapsed to the word-line saturation point (the
         same fixed point the FN transient relaxes to) *)
      let q_floor =
        match D.Transient.saturation_charge device ~vgs:cfg.vgs_program with
        | Ok q -> q
        | Error e ->
          Tel.count ("nor_array/saturation_fallback/" ^ Err.label e);
          q0 -. dose
      in
      let qfg = max q_floor (q0 -. dose) in
      let injected = q0 -. qfg in
      let field =
        abs_float (D.Fgt.tunnel_field device ~vgs:cfg.vgs_program ~qfg)
      in
      let c = S.view t.store index in
      let wear =
        D.Reliability.after_pulse D.Reliability.default c.Cell.wear ~injected
          ~area:device.D.Fgt.area ~field:(max field 1e6)
      in
      S.set t.store index { c with Cell.qfg; wear };
      t.programs <- t.programs + 1;
      t.total_supply_charge <-
        t.total_supply_charge +. (cfg.drain_current *. cfg.pulse_width);
      Ok t
    end

let read_bit t ~index =
  match check_index t index with
  | Error e -> Error e
  | Ok () -> Ok (Cell.to_bit (Cell.read (S.view t.store index)))

let erase_all t =
  S.apply_pulse_range t.store ~memo:t.ememo
    ~pulse:D.Program_erase.default_erase_pulse ~surrogate:true ~lo:0
    ~hi:(S.length t.store - 1)
  |> Result.map (fun () -> t)

let programming_current t ~simultaneous =
  if simultaneous < 0 then invalid_arg "Nor_array.programming_current: negative count";
  float_of_int simultaneous *. t.config.drain_current
