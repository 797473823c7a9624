type config = {
  v_disturb : float;
  pulse_width : float;
}

let half_select ~vgs_program ~pulse_width = { v_disturb = vgs_program /. 2.; pulse_width }

let default_config = half_select ~vgs_program:15. ~pulse_width:10e-6

(* The disturb bias is constant across events, so n events of width w are
   one transient of duration n*w. *)
let run_events ?(config = default_config) t ~qfg0 ~events =
  if events < 0 then Error "Disturb: negative events"
  else begin
    let duration = float_of_int events *. config.pulse_width in
    if duration <= 0. then Ok None
    else
      match Transient.pulse ~qfg0 t ~vgs:config.v_disturb ~duration with
      | Error e -> Error (Gnrflash_resilience.Solver_error.to_string e)
      | Ok r -> Ok (Some r)
  end

let dvt_after_events ?config t ~qfg0 ~events =
  match run_events ?config t ~qfg0 ~events with
  | Error e -> Error e
  | Ok None -> Ok (Fgt.threshold_shift t ~qfg:qfg0)
  | Ok (Some r) -> Ok r.Transient.dvt_final

let qfg_after_events ?config t ~qfg0 ~events =
  match run_events ?config t ~qfg0 ~events with
  | Error e -> Error e
  | Ok None -> Ok qfg0
  | Ok (Some r) -> Ok r.Transient.qfg_final

let events_to_failure ?(config = default_config) t ~qfg0 ~dvt_fail ~max_events =
  if dvt_fail <= 0. then Error "Disturb.events_to_failure: dvt_fail <= 0"
  else begin
    let rec search n =
      if n > max_events then Ok None
      else
        match dvt_after_events ~config t ~qfg0 ~events:n with
        | Error e -> Error e
        | Ok dvt ->
          if dvt >= dvt_fail then begin
            (* binary refine between n/2 and n *)
            let lo = ref (n / 2) and hi = ref n in
            let err = ref None in
            while !hi - !lo > 1 && Option.is_none !err do
              let mid = (!lo + !hi) / 2 in
              match dvt_after_events ~config t ~qfg0 ~events:mid with
              | Error e -> err := Some e
              | Ok d -> if d >= dvt_fail then hi := mid else lo := mid
            done;
            match !err with Some e -> Error e | None -> Ok (Some !hi)
          end
          else search (n * 2)
    in
    search 1
  end
