module D = Gnrflash_device
module S = Cell_store

type stats = {
  programs : int;
  erases : int;
  reads : int;
  program_failures : int;
  disturb_events : int;
}

type t = {
  pages : int;
  strings : int;
  store : S.t; (* cell (page, s) at page * strings + s *)
  ememo : S.memo; (* erase-pulse outcomes over the block's lifetime *)
  ispp : D.Ispp.config;
  disturb : D.Disturb.config;
  mutable stats : stats;
}

let create ?(ispp = D.Ispp.default) ?disturb device ~pages ~strings =
  if pages < 1 || strings < 1 then
    invalid_arg "Nand_block.create: non-positive dimensions";
  let disturb =
    match disturb with
    | Some d -> d
    | None ->
      D.Disturb.half_select ~vgs_program:ispp.D.Ispp.v_start
        ~pulse_width:ispp.D.Ispp.pulse_width
  in
  {
    pages;
    strings;
    store = S.create ~n:(pages * strings) device;
    ememo = S.memo ();
    ispp;
    disturb;
    stats =
      { programs = 0; erases = 0; reads = 0; program_failures = 0; disturb_events = 0 };
  }

let strings t = t.strings
let stats t = t.stats

let check_page t page =
  if page < 0 || page >= t.pages then invalid_arg "Nand_block: page out of range"

let program_page t ~page ~data =
  check_page t page;
  if Array.length data <> t.strings then
    invalid_arg "Nand_block.program_page: data length mismatch";
  let device = S.device t.store in
  let base = page * t.strings in
  let rec program s failures events =
    if s = t.strings then Ok (failures, events)
    else if data.(s) <> 0 then program (s + 1) failures events
    else
      match D.Ispp.run ~config:t.ispp device ~qfg0:(S.qfg t.store (base + s)) with
      | Error e -> Error e
      | Ok r ->
        (match List.rev r.D.Ispp.steps with
         | last :: _ -> S.set_qfg t.store (base + s) last.D.Ispp.qfg
         | [] -> ());
        program (s + 1)
          (if r.D.Ispp.passed then failures else failures + 1)
          (events + r.D.Ispp.pulses_used)
  in
  (* every ISPP pulse exposes the inhibited (data = 1) cells on this word
     line; apply the accumulated exposure once per inhibited cell *)
  let rec disturb duration s =
    if s = t.strings then Ok ()
    else if data.(s) <> 1 then disturb duration (s + 1)
    else
      match
        D.Transient.run ~qfg0:(S.qfg t.store (base + s)) device
          ~vgs:t.disturb.D.Disturb.v_disturb ~duration
      with
      | Error e -> Error (Gnrflash_resilience.Solver_error.to_string e)
      | Ok r ->
        S.set_qfg t.store (base + s) r.D.Transient.qfg_final;
        disturb duration (s + 1)
  in
  match program 0 0 0 with
  | Error e -> Error e
  | Ok (failures, events) ->
    let disturbed =
      if events = 0 then Ok ()
      else disturb (float_of_int events *. t.disturb.D.Disturb.pulse_width) 0
    in
    Result.map
      (fun () ->
         t.stats <-
           {
             t.stats with
             programs = t.stats.programs + 1;
             program_failures = t.stats.program_failures + failures;
             disturb_events = t.stats.disturb_events + events;
           })
      disturbed

let erase_block t =
  S.apply_pulse_range t.store ~memo:t.ememo
    ~pulse:D.Program_erase.default_erase_pulse ~surrogate:true ~lo:0
    ~hi:(S.length t.store - 1)
  |> Result.map (fun () -> t.stats <- { t.stats with erases = t.stats.erases + 1 })

let page_bits t ~page =
  check_page t page;
  Array.init t.strings (fun s ->
      Cell.to_bit (Cell.read (S.view t.store ((page * t.strings) + s))))

let read_page t ~page =
  let bits = page_bits t ~page in
  t.stats <- { t.stats with reads = t.stats.reads + 1 };
  bits

let verify_page t ~page ~data = page_bits t ~page = data

let dvt t ~page ~string_ =
  check_page t page;
  if string_ < 0 || string_ >= t.strings then
    invalid_arg "Nand_block: string out of range";
  S.dvt t.store ((page * t.strings) + string_)

let wear_summary t =
  let n = S.length t.store in
  let cycles = ref 0 and max_fluence = ref 0. and broken = ref 0 in
  for i = 0 to n - 1 do
    cycles := !cycles + S.cycles t.store i;
    max_fluence := max !max_fluence (S.fluence t.store i);
    if S.broken t.store i then incr broken
  done;
  (float_of_int !cycles /. float_of_int n, !max_fluence, !broken)
