module D = Gnrflash_device
module Tel = Gnrflash_telemetry.Telemetry
module Err = Gnrflash_resilience.Solver_error

type cycle_sample = {
  cycle : int;
  vt_programmed : float;
  vt_erased : float;
  window : float;
  fluence : float;
}

type run = {
  samples : cycle_sample list;
  cycles_survived : int;
  failure : string option;
}

let log_spaced_checkpoints n =
  (* 1, 2, 3, 5, 10, 20, ... up to n *)
  let rec go acc decade =
    if decade > n then List.rev acc
    else begin
      let pts = List.filter (fun x -> x <= n) [ decade; 2 * decade; 3 * decade; 5 * decade ] in
      go (List.rev_append pts acc) (decade * 10)
    end
  in
  List.sort_uniq compare (go [] 1 @ [ n ])

let cycle_cell ?(reliability = D.Reliability.default)
    ?(program_pulse = D.Program_erase.default_program_pulse)
    ?(erase_pulse = D.Program_erase.default_erase_pulse) ?(window_min = 1.)
    ?surrogate device ~cycles =
  if cycles < 1 then invalid_arg "Endurance.cycle_cell: cycles < 1";
  let checkpoints = log_spaced_checkpoints cycles in
  (* P/E cycling alternates exactly two charge states once the loop
     settles, so a 1-cell store with per-pulse memos turns the long
     cycling run into O(1) replays after the first few solves *)
  let store = Cell_store.create ?surrogate ~n:1 device in
  let pmemo = Cell_store.memo store and ememo = Cell_store.memo store in
  let samples = ref [] in
  let failure = ref None in
  let survived = ref 0 in
  (try
     for i = 1 to cycles do
       (match
          Cell_store.apply_pulse_at ~reliability store ~memo:pmemo
            ~pulse:program_pulse 0
        with
        | Error e -> failure := Some e; raise Exit
        | Ok () -> ());
       let vt_prog = Cell.effective_vt ~reliability (Cell_store.view store 0) in
       (match
          Cell_store.apply_pulse_at ~reliability store ~memo:ememo
            ~pulse:erase_pulse 0
        with
        | Error e -> failure := Some e; raise Exit
        | Ok () -> ());
       let vt_er = Cell.effective_vt ~reliability (Cell_store.view store 0) in
       survived := i;
       let window = vt_prog -. vt_er in
       if List.mem i checkpoints then
         samples :=
           {
             cycle = i;
             vt_programmed = vt_prog;
             vt_erased = vt_er;
             window;
             fluence = Cell_store.fluence store 0;
           }
           :: !samples;
       if window < window_min then begin
         failure := Some "window closed";
         raise Exit
       end
     done
   with Exit -> ());
  { samples = List.rev !samples; cycles_survived = !survived; failure = !failure }

let predicted_endurance ?(reliability = D.Reliability.default) device ~vgs =
  match D.Transient.saturation_charge device ~vgs with
  | Error e ->
    Tel.count ("endurance/saturation_fallback/" ^ Err.label e);
    0.
  | Ok q_sat ->
    let per_cycle = 2. *. abs_float q_sat in
    (* program + erase both stress the tunnel oxide *)
    let field = abs_float (D.Fgt.tunnel_field device ~vgs ~qfg:0.) in
    D.Reliability.endurance_cycles reliability ~charge_per_cycle:per_cycle
      ~area:device.D.Fgt.area ~field
