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

(* 1, 2, 3, 5, 10, 20, ... up to n, and n itself, ascending *)
let log_spaced_checkpoints n =
  let rec go acc decade =
    if decade > n then acc
    else
      go
        (List.filter (fun x -> x <= n) [ decade; 2 * decade; 3 * decade; 5 * decade ] @ acc)
        (decade * 10)
  in
  Array.of_list (List.sort_uniq Int.compare (n :: go [] 1))

let cycle_cell ?(reliability = D.Reliability.default)
    ?(program_pulse = D.Program_erase.default_program_pulse)
    ?(erase_pulse = D.Program_erase.default_erase_pulse) ?(window_min = 1.)
    ?surrogate device ~cycles =
  if cycles < 1 then invalid_arg "Endurance.cycle_cell: cycles < 1";
  let checkpoints = log_spaced_checkpoints cycles in
  (* P/E cycling alternates exactly two charge states once the loop
     settles, so a 1-cell store with per-pulse memos turns the long
     cycling run into O(1) replays after the first few solves; the cycle
     itself and both threshold readouts run inside [Cell_store.pe_cycle],
     so a replayed cycle allocates nothing and only a checkpoint builds a
     sample *)
  let store = Cell_store.create ?surrogate ~n:1 device in
  let pmemo = Cell_store.memo store and ememo = Cell_store.memo store in
  let vt = Cell_store.pe_readout () in
  let samples = ref [] in
  let failure = ref None in
  let survived = ref 0 in
  let next = ref 0 in
  (try
     for i = 1 to cycles do
       Cell_store.pe_cycle store ~reliability ~pmemo ~ememo
         ~program:program_pulse ~erase:erase_pulse 0 vt;
       survived := i;
       let window = vt.Cell_store.vt_programmed -. vt.Cell_store.vt_erased in
       if i = checkpoints.(!next) then begin
         samples :=
           {
             cycle = i;
             vt_programmed = vt.Cell_store.vt_programmed;
             vt_erased = vt.Cell_store.vt_erased;
             window;
             fluence = Cell_store.fluence store 0;
           }
           :: !samples;
         incr next
       end;
       if window < window_min then begin
         failure := Some "window closed";
         raise Exit
       end
     done
   with
   | Exit -> ()
   | Cell_store.Pulse_error e -> failure := Some e);
  { samples = List.rev !samples; cycles_survived = !survived; failure = !failure }

let predicted_endurance ?(reliability = D.Reliability.default) device ~vgs =
  let sat vgs = D.Transient.saturation_charge device ~vgs in
  match (sat vgs, sat (-.vgs)) with
  | Error e, _ | _, Error e ->
    Tel.count ("endurance/saturation_fallback/" ^ Err.label e);
    0.
  | Ok q_prog, Ok q_erase ->
    (* a saturated cycle swings the charge from one saturation charge to
       the other and back, and both pulses stress the tunnel oxide *)
    let per_cycle = 2. *. abs_float (q_prog -. q_erase) in
    let field = abs_float (D.Fgt.tunnel_field device ~vgs ~qfg:0.) in
    D.Reliability.endurance_cycles reliability ~charge_per_cycle:per_cycle
      ~area:device.D.Fgt.area ~field
