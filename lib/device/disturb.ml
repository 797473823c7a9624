type config = {
  v_disturb : float;
  pulse_width : float;
}

let half_select ~vgs_program ~pulse_width = { v_disturb = vgs_program /. 2.; pulse_width }

let default_config = half_select ~vgs_program:15. ~pulse_width:10e-6

(* The disturb bias is constant across events, so n events of width w are
   one transient of duration n*w. *)
let qfg_after_events ?(config = default_config) t ~qfg0 ~events =
  if events < 0 then Error "Disturb: negative events"
  else begin
    let duration = float_of_int events *. config.pulse_width in
    if duration <= 0. then Ok qfg0
    else
      match Transient.pulse ~qfg0 t ~vgs:config.v_disturb ~duration with
      | Error e -> Error (Gnrflash_resilience.Solver_error.to_string e)
      | Ok r -> Ok r.Transient.qfg_final
  end
