type t = {
  v_dd : float;
  v_diode : float;
  c_stage : float;
  f_clk : float;
  stages : int;
}

let make ~v_dd ~stages =
  if v_dd <= 0. || stages < 1 then
    invalid_arg "Charge_pump.make: non-positive parameter";
  { v_dd; v_diode = 0.3; c_stage = 1e-12; f_clk = 20e6; stages }

let per_stage_gain t ~i_load =
  t.v_dd -. t.v_diode -. (i_load /. (t.f_clk *. t.c_stage))

let stages_for ?(margin = 0.05) t ~v_target ~i_load =
  let gain = per_stage_gain t ~i_load in
  if gain <= 0. then invalid_arg "Charge_pump.stages_for: pump cannot source this load";
  let needed = (v_target *. (1. +. margin)) -. t.v_dd +. t.v_diode in
  max 1 (int_of_float (ceil (needed /. gain)))

let energy_per_program t ~i_load ~pulse_width =
  if pulse_width < 0. then invalid_arg "Charge_pump.energy_per_program: negative width";
  (* supply delivers (N+1) * I_load at V_dd for the pulse duration *)
  float_of_int (t.stages + 1) *. i_load *. t.v_dd *. pulse_width

module For_testing = struct
  let output_voltage t ~i_load =
    if i_load < 0. then invalid_arg "Charge_pump.output_voltage: negative load";
    t.v_dd +. (float_of_int t.stages *. per_stage_gain t ~i_load) -. t.v_diode
end
