module D = Gnrflash_device
module Tel = Gnrflash_telemetry.Telemetry
module Err = Gnrflash_resilience.Solver_error

type op_energy = {
  cell_energy : float;
  supply_energy : float;
  pump_stages : int;
}

(* A 12-stage pump from a 1.8 V supply, resized per operation below. *)
let pump = D.Charge_pump.make ~v_dd:1.8 ~stages:12

let fn_program_energy device ~vgs ~pulse_width =
  (* integrate the injected charge over the pulse: the transient endpoint
     gives total charge moved; the supply sees it at VGS through the pump *)
  let injected, mean_current =
    match D.Transient.pulse device ~qfg0:0. ~vgs ~duration:pulse_width with
    | Ok r ->
      let q = abs_float r.D.Transient.qfg_final in
      (q, q /. pulse_width)
    | Error e ->
      Tel.count ("energy/transient_fallback/" ^ Err.label e);
      (0., 0.)
  in
  let stages = D.Charge_pump.stages_for pump ~v_target:vgs ~i_load:mean_current in
  let pump = { pump with D.Charge_pump.stages } in
  {
    cell_energy = injected *. vgs;
    supply_energy =
      D.Charge_pump.energy_per_program pump ~i_load:(max mean_current 1e-12)
        ~pulse_width;
    pump_stages = stages;
  }

let che_program_energy ~drain_current ~vds ~vgs ~pulse_width =
  (* drain path runs directly from a mid-rail supply; the gate is pumped
     but draws negligible current *)
  let drain_energy = drain_current *. vds *. pulse_width in
  let stages = D.Charge_pump.stages_for pump ~v_target:vgs ~i_load:1e-9 in
  let pump_sized = { pump with D.Charge_pump.stages } in
  let gate_energy =
    D.Charge_pump.energy_per_program pump_sized ~i_load:1e-9 ~pulse_width
  in
  {
    cell_energy = drain_energy;
    supply_energy = drain_energy +. gate_energy;
    pump_stages = stages;
  }

let page_program_comparison ~cells =
  if cells < 1 then invalid_arg "Energy.page_program_comparison: cells < 1";
  let device = D.Fgt.paper_default in
  (* FN: all cells in parallel on one word line, 10 us pulse at 15 V *)
  let fn = fn_program_energy device ~vgs:15. ~pulse_width:10e-6 in
  let fn_total = fn.supply_energy *. float_of_int cells in
  (* CHE: 0.5 mA per cell at VDS = 5 V for 1 us (typical NOR numbers);
     cells must be programmed in small groups, but energy scales per cell *)
  let che =
    che_program_energy ~drain_current:0.5e-3 ~vds:5. ~vgs:10. ~pulse_width:1e-6
  in
  let che_total = che.supply_energy *. float_of_int cells in
  [
    ("fn-page-energy-J", fn_total);
    ("che-page-energy-J", che_total);
    ("che-to-fn-ratio", che_total /. max fn_total 1e-30);
  ]
