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

let output_voltage t ~i_load =
  if i_load < 0. then invalid_arg "Charge_pump.output_voltage: negative load";
  t.v_dd +. (float_of_int t.stages *. per_stage_gain t ~i_load) -. t.v_diode

let stages_for ?(margin = 0.05) t ~v_target ~i_load =
  let gain = per_stage_gain t ~i_load in
  if gain <= 0. then invalid_arg "Charge_pump.stages_for: pump cannot source this load";
  let needed = (v_target *. (1. +. margin)) -. t.v_dd +. t.v_diode in
  max 1 (int_of_float (ceil (needed /. gain)))

let efficiency t ~i_load =
  let v_out = output_voltage t ~i_load in
  let eta = v_out /. (float_of_int (t.stages + 1) *. t.v_dd) in
  if eta <= 0. then 0. else min eta 1.

let energy_per_program t ~i_load ~pulse_width =
  if pulse_width < 0. then invalid_arg "Charge_pump.energy_per_program: negative width";
  (* supply delivers (N+1) * I_load at V_dd for the pulse duration *)
  float_of_int (t.stages + 1) *. i_load *. t.v_dd *. pulse_width

let ramp_time t ~load_capacitance ~v_target =
  if load_capacitance <= 0. || v_target <= 0. then
    invalid_arg "Charge_pump.ramp_time: non-positive argument";
  let i_avail = t.f_clk *. t.c_stage *. (t.v_dd -. t.v_diode) in
  load_capacitance *. v_target /. i_avail

module For_testing = struct
  let output_voltage = output_voltage
end
