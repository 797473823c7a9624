type config = {
  v_start : float;
  v_step : float;
  v_max : float;
  pulse_width : float;
  target_dvt : float;
}

let default =
  { v_start = 12.; v_step = 0.5; v_max = 20.; pulse_width = 10e-6; target_dvt = 2. }

type step = {
  pulse_index : int;
  vgs : float;
  dvt : float;
  qfg : float;
}

type result = {
  steps : step list;
  passed : bool;
  pulses_used : int;
}

let run ?(config = default) engine ~qfg0 =
  if config.v_step <= 0. then Error "Ispp.run: v_step <= 0"
  else if config.pulse_width <= 0. then Error "Ispp.run: pulse_width <= 0"
  else begin
    let rec loop idx vgs qfg acc =
      if vgs > config.v_max then
        Ok { steps = List.rev acc; passed = false; pulses_used = idx }
      else begin
        let pulse = { Program_erase.vgs; duration = config.pulse_width } in
        match Program_erase.apply_pulse engine ~qfg pulse with
        | Error e -> Error (Gnrflash_resilience.Solver_error.to_string e)
        | Ok o ->
          let s =
            {
              pulse_index = idx;
              vgs;
              dvt = o.Program_erase.dvt_after;
              qfg = o.Program_erase.qfg_after;
            }
          in
          if o.Program_erase.dvt_after >= config.target_dvt then
            Ok { steps = List.rev (s :: acc); passed = true; pulses_used = idx + 1 }
          else
            loop (idx + 1) (vgs +. config.v_step) o.Program_erase.qfg_after (s :: acc)
      end
    in
    loop 0 config.v_start qfg0 []
  end

module For_testing = struct
  let dvt_per_pulse_tail r =
    let dvts = List.map (fun s -> s.dvt) r.steps in
    let rec increments = function
      | a :: (b :: _ as rest) -> (b -. a) :: increments rest
      | _ -> []
    in
    match dvts with
    | [] | [ _ ] -> []
    | _ ->
      (* drop the leading ramp-up pulses that produce negligible shift *)
      increments dvts
      |> List.filter (fun d -> d > 1e-3)
end
