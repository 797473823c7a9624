[@@@gnrflash.hot]
(* lint: this module's program/erase loops are the bench-critical
   hot path — L13 flags allocating record updates and closures inside
   them (the SoA Cell_store keeps them allocation-free). *)

module D = Gnrflash_device
module S = Cell_store
module Tel = Gnrflash_telemetry.Telemetry

type config = {
  sectors : int;
  words_per_sector : int;
  word_bits : int;
  write_buffer_words : int;
  program_pulse : D.Program_erase.pulse;
  max_pulses : int;
}

let default_config =
  {
    sectors = 8;
    words_per_sector = 32;
    word_bits = 13;
    write_buffer_words = 16;
    program_pulse = D.Program_erase.default_program_pulse;
    max_pulses = 8;
  }

let t_cycle = 100e-9 (* every bus cycle [s] *)
let erase_pulse = D.Program_erase.default_erase_pulse (* every erase round *)

type error =
  | Bad_sequence of { state : string; addr : int; data : int }
  | Busy of { operation : string }
  | Not_erasing
  | Buffer_overflow of { count : int; capacity : int }
  | Buffer_sector_crossing of { sector : int; addr : int }
  | Physics of string

let error_to_string = function
  | Bad_sequence { state; addr; data } ->
    Printf.sprintf "Command_fsm: command 0x%X @ 0x%X not accepted in state %s"
      data addr state
  | Busy { operation } ->
    Printf.sprintf "Command_fsm: bus write while %s is running" operation
  | Not_erasing -> "Command_fsm: erase suspend with no sector erase in flight"
  | Buffer_overflow { count; capacity } ->
    Printf.sprintf "Command_fsm: write buffer count %d exceeds capacity %d" count
      capacity
  | Buffer_sector_crossing { sector; addr } ->
    Printf.sprintf "Command_fsm: buffered word @ 0x%X outside sector %d" addr sector
  | Physics e -> "Command_fsm: pulse solve failed: " ^ e

type stats = {
  mutable bus_cycles : int;
  mutable data_reads : int;
  mutable status_reads : int;
  mutable programs : int;
  mutable words_programmed : int;
  mutable sector_erases : int;
  mutable chip_erases : int;
  mutable suspends : int;
  mutable resumes : int;
  mutable resets : int;
  mutable program_pulses : int;
  mutable erase_pulses : int;
  mutable verify_timeouts : int;
  mutable disturb_events : int;
  mutable bad_sequences : int;
}

(* The running operation, as an int tag in [t.op] with its argument in
   [t.op_arg] (DQ7 for a program, the sector for a sector erase), so a
   launch allocates nothing. *)
let op_none = 0
let op_program = 1
let op_sector_erase = 2
let op_chip_erase = 3

(* All-float, so the fields are stored flat and [tick]/[launch] update
   them without boxing. *)
type timing = {
  mutable clock : float;
  mutable ends_at : float; (* end of the running operation's busy window *)
  mutable remaining : float; (* busy seconds left of the suspended erase *)
}

(* The buffer states' sector, word count and loaded words live in the
   [buf_*] fields of [t], so a bus cycle allocates no state. *)
type seq =
  | Idle
  | Unlock1
  | Unlocked
  | Word_program
  | Erase_setup
  | Erase_unlock1
  | Erase_unlocked
  | Buf_count
  | Buf_load
  | Buf_confirm

type t = {
  cfg : config;
  words : int; (* [sectors * words_per_sector] *)
  u1 : int; (* the unlock addresses 0x555 and 0x2AA, wrapped *)
  u2 : int;
  store : S.t; (* cell [addr * word_bits + bit] *)
  pmemo : S.memo; (* program-pulse transitions, by starting charge id *)
  ememo : S.memo; (* erase-pulse transitions *)
  word : S.word_outcome; (* refilled by every word program *)
  tm : timing;
  mutable seq : seq;
  mutable op : int; (* [op_*] tag; busy until [tm.ends_at] *)
  mutable op_arg : int;
  mutable suspended : int; (* sector of the suspended erase, -1 none;
                              [tm.remaining] left to run *)
  buf_addr : int array; (* write buffer: distinct word addresses... *)
  buf_data : int array; (* ...and the last value loaded for each *)
  mutable buf_len : int; (* distinct words loaded *)
  mutable buf_left : int; (* load cycles still expected *)
  mutable buf_last : int; (* entry of the last load cycle *)
  mutable buf_sector : int;
  mutable dq6 : int; (* toggles on status reads while busy *)
  mutable dq2 : int; (* toggles on suspended-sector status reads *)
  ms : stats;
}

let create ?(config = default_config) device =
  if config.sectors < 1 || config.words_per_sector < 1 || config.word_bits < 1
     || config.write_buffer_words < 1 || config.max_pulses < 1
     || config.word_bits >= Sys.int_size
  then invalid_arg "Command_fsm.create: bad geometry";
  let words = config.sectors * config.words_per_sector in
  let store = S.create ~n:(words * config.word_bits) device in
  {
    cfg = config;
    words;
    u1 = 0x555 mod words;
    u2 = 0x2AA mod words;
    store;
    pmemo = S.memo store;
    ememo = S.memo store;
    word = S.word_outcome ();
    tm = { clock = 0.; ends_at = 0.; remaining = 0. };
    seq = Idle;
    op = op_none;
    op_arg = 0;
    suspended = -1;
    buf_addr = Array.make config.write_buffer_words 0;
    buf_data = Array.make config.write_buffer_words 0;
    buf_len = 0;
    buf_left = 0;
    buf_last = 0;
    buf_sector = 0;
    dq6 = 0;
    dq2 = 0;
    ms =
      {
        bus_cycles = 0;
        data_reads = 0;
        status_reads = 0;
        programs = 0;
        words_programmed = 0;
        sector_erases = 0;
        chip_erases = 0;
        suspends = 0;
        resumes = 0;
        resets = 0;
        program_pulses = 0;
        erase_pulses = 0;
        verify_timeouts = 0;
        disturb_events = 0;
        bad_sequences = 0;
      };
  }

let config t = t.cfg
let words t = t.words
(* [addr] wrapped into [0, words), dividing only out of range *)
let wrap t addr =
  if addr >= 0 && addr < t.words then addr
  else
    let a = addr mod t.words in
    if a < 0 then a + t.words else a

let now t = t.tm.clock

let state_name t =
  match t.seq with
  | Idle -> if t.suspended >= 0 then "erase_suspended" else "idle"
  | Unlock1 -> "unlock1"
  | Unlocked -> "unlocked"
  | Word_program -> "word_program"
  | Erase_setup -> "erase_setup"
  | Erase_unlock1 -> "erase_unlock1"
  | Erase_unlocked -> "erase_unlocked"
  | Buf_count -> "buffer_count"
  | Buf_load -> "buffer_load"
  | Buf_confirm -> "buffer_confirm"

let commit t =
  if t.op <> op_none && t.tm.clock >= t.tm.ends_at then t.op <- op_none

let tick t =
  t.tm.clock <- t.tm.clock +. t_cycle;
  t.ms.bus_cycles <- t.ms.bus_cycles + 1;
  commit t

let[@inline] step_to t target =
  if target > t.tm.clock then t.tm.clock <- target;
  commit t

let step_quarter_erase_pulse t =
  step_to t (t.tm.clock +. (0.25 *. erase_pulse.D.Program_erase.duration))

let ready t = t.op = op_none

let wait_ready t =
  if t.op <> op_none then begin
    if t.tm.ends_at > t.tm.clock then t.tm.clock <- t.tm.ends_at;
    commit t
  end

(* ---------- physics ---------- *)

(* Embedded program of one word: pulse-and-verify per target-0 bit, bits in
   parallel on the word line (busy time = the slowest bit's pulse count,
   which this returns). AND semantics: a target 1 over a programmed cell
   cannot raise it — that is a verify timeout, not an error, exactly like
   hardware. A failed pulse restores its bit (see [S.program_word]) and
   stops the word; the earlier bits' pulses still count. *)
let program_word_cells t ~addr ~data =
  let o = t.word in
  (match
     S.program_word t.store ~memo:t.pmemo ~pulse:t.cfg.program_pulse
       ~max_pulses:t.cfg.max_pulses ~base:(addr * t.cfg.word_bits)
       ~bits:t.cfg.word_bits ~data o
   with
   | () -> ()
   | exception (S.Pulse_error _ as failed) ->
     t.ms.program_pulses <- t.ms.program_pulses + o.S.total;
     raise failed);
  t.ms.program_pulses <- t.ms.program_pulses + o.S.total;
  let slowest = o.S.slowest in
  (* every program pulse gate-disturbs the unselected words of the sector *)
  t.ms.disturb_events <-
    t.ms.disturb_events + (slowest * (t.cfg.words_per_sector - 1));
  if o.S.timed_out then t.ms.verify_timeouts <- t.ms.verify_timeouts + 1;
  t.ms.words_programmed <- t.ms.words_programmed + 1;
  slowest

(* Embedded sector erase: erase pulses hit every cell of the sector each
   round (over-erasing already-clean cells — the real NOR over-erase
   hazard), verify per cell, repeat until the whole sector reads erased.
   Each round's kernel returns the cells still reading 0, so only the
   first verify needs its own scan, which stops at the first programmed
   cell. Returns the number of rounds. *)
let erase_sector_cells t ~sector =
  let lo = sector * t.cfg.words_per_sector * t.cfg.word_bits in
  let ncells = t.cfg.words_per_sector * t.cfg.word_bits in
  let hi = lo + ncells - 1 in
  let pending = ref (not (S.all_erased t.store ~lo ~hi)) in
  let rounds = ref 0 in
  while !pending && !rounds < t.cfg.max_pulses do
    pending :=
      S.erase_round t.store ~memo:t.ememo ~pulse:erase_pulse ~lo ~hi > 0;
    t.ms.erase_pulses <- t.ms.erase_pulses + ncells;
    incr rounds
  done;
  if !pending then t.ms.verify_timeouts <- t.ms.verify_timeouts + 1;
  !rounds

let[@inline] launch t op ~arg duration =
  t.tm.ends_at <- t.tm.clock +. duration;
  t.op <- op;
  t.op_arg <- arg;
  commit t (* zero-duration operations (nothing to do) complete at once *)

let[@inline] physics_failed t e =
  t.seq <- Idle;
  Error (Physics e)

(* ---------- bus ---------- *)

let sense_word t ~addr =
  S.sense t.store ~base:(wrap t addr * t.cfg.word_bits) ~bits:t.cfg.word_bits

(* [addr] (wrapped) lies in the suspended sector, if any *)
let[@inline] in_suspended t addr =
  t.suspended >= 0 && addr / t.cfg.words_per_sector = t.suspended

(* A status answer as [read_word] returns it: [min_int] (so negative)
   with DQ7, DQ6, DQ5 and DQ2 at bits 7, 6, 5 and 2. *)
let status_read t ~addr ~toggle6 =
  t.ms.status_reads <- t.ms.status_reads + 1;
  if toggle6 then t.dq6 <- 1 - t.dq6;
  if in_suspended t addr then t.dq2 <- 1 - t.dq2;
  let dq7 =
    if t.op = op_program then t.op_arg
    else if t.op <> op_none then 0 (* erasing: DQ7 reads 0 until done *)
    else 1
  in
  let dq5 =
    (* timeout bit: internal verify exhausted max_pulses at least once *)
    if t.ms.verify_timeouts > 0 then 1 else 0
  in
  min_int lor (dq7 lsl 7) lor (t.dq6 lsl 6) lor (dq5 lsl 5) lor (t.dq2 lsl 2)

let read_word t ~addr =
  tick t;
  let addr = wrap t addr in
  if t.op <> op_none then status_read t ~addr ~toggle6:true
  else if in_suspended t addr then
    (* DQ6 does not toggle during suspend; DQ2 does *)
    status_read t ~addr ~toggle6:false
  else begin
    t.ms.data_reads <- t.ms.data_reads + 1;
    S.sense t.store ~base:(addr * t.cfg.word_bits) ~bits:t.cfg.word_bits
  end

let poll_ready t ~interval =
  let n = ref 0 in
  while read_word t ~addr:0 < 0 do
    incr n;
    step_to t (t.tm.clock +. interval)
  done;
  !n

let bad t ~addr ~data =
  t.ms.bad_sequences <- t.ms.bad_sequences + 1;
  let state = state_name t in
  t.seq <- Idle;
  Error (Bad_sequence { state; addr; data })

(* [addr] (wrapped) lies in the write buffer's sector *)
let[@inline] in_buffer_sector t addr =
  let d = addr - (t.buf_sector * t.cfg.words_per_sector) in
  d >= 0 && d < t.cfg.words_per_sector

(* JEDEC buffers keep one entry per address: a word loaded twice takes
   the last value loaded, in the slot of its first load. *)
let buffer_load t ~addr ~data =
  let j = ref 0 in
  while !j < t.buf_len && t.buf_addr.(!j) <> addr do
    incr j
  done;
  if !j = t.buf_len then begin
    t.buf_addr.(!j) <- addr;
    t.buf_len <- !j + 1
  end;
  t.buf_data.(!j) <- data;
  t.buf_last <- !j;
  t.buf_left <- t.buf_left - 1;
  t.seq <- (if t.buf_left = 0 then Buf_confirm else Buf_load)

(* Programs the buffered words in load order; returns the busy time, the
   per-word durations summed in that order. Inlined, so the float reaches
   [launch] unboxed: a float returned from a call is boxed. *)
let[@inline] program_buffer t =
  let pulse_s = t.cfg.program_pulse.D.Program_erase.duration in
  let d = ref 0. in
  for j = 0 to t.buf_len - 1 do
    let p = program_word_cells t ~addr:t.buf_addr.(j) ~data:t.buf_data.(j) in
    d := !d +. (float_of_int p *. pulse_s)
  done;
  !d

(* Erases every sector in turn; returns the busy time, the per-sector
   durations summed in that order. *)
let erase_chip_cells t =
  let pulse_s = erase_pulse.D.Program_erase.duration in
  let d = ref 0. in
  for sector = 0 to t.cfg.sectors - 1 do
    d := !d +. (float_of_int (erase_sector_cells t ~sector) *. pulse_s)
  done;
  !d

let write t ~addr ~data =
  tick t;
  let addr = wrap t addr in
  if t.op <> op_none then begin
    if data = 0xB0 then begin
      (* erase suspend: only a sector erase can be suspended *)
      if t.op = op_sector_erase then begin
        t.tm.remaining <- t.tm.ends_at -. t.tm.clock;
        t.suspended <- t.op_arg;
        t.op <- op_none;
        t.seq <- Idle;
        t.ms.suspends <- t.ms.suspends + 1;
        Tel.count "command_fsm/suspend";
        Ok ()
      end
      else Error Not_erasing
    end
    else
      let operation =
        if t.op = op_program then "an embedded program"
        else if t.op = op_sector_erase then "a sector erase"
        else "a chip erase"
      in
      Error (Busy { operation })
  end
  else (
    match t.seq with
    | Word_program -> (
      (* data cycle of the single-word program *)
      t.seq <- Idle;
      if in_suspended t addr then begin
        t.ms.bad_sequences <- t.ms.bad_sequences + 1;
        Error (Bad_sequence { state = "erase_suspended"; addr; data })
      end
      else
        match program_word_cells t ~addr ~data with
        | exception S.Pulse_error e -> physics_failed t e
        | p ->
          t.ms.programs <- t.ms.programs + 1;
          Tel.count "command_fsm/program";
          launch t op_program ~arg:(1 - (data land 1))
            (float_of_int p *. t.cfg.program_pulse.D.Program_erase.duration);
          Ok ())
    | Buf_count ->
      (* JEDEC encodes the word count as N-1 *)
      let count = data + 1 in
      let sector = t.buf_sector in
      if not (in_buffer_sector t addr) then begin
        t.seq <- Idle;
        Error (Buffer_sector_crossing { sector; addr })
      end
      else if count < 1 then bad t ~addr ~data (* negative data or overflow *)
      else if count > t.cfg.write_buffer_words then begin
        t.seq <- Idle;
        Error (Buffer_overflow { count; capacity = t.cfg.write_buffer_words })
      end
      else begin
        t.buf_len <- 0;
        t.buf_left <- count;
        t.seq <- Buf_load;
        Ok ()
      end
    | Buf_load ->
      let sector = t.buf_sector in
      if not (in_buffer_sector t addr) then begin
        t.seq <- Idle;
        Error (Buffer_sector_crossing { sector; addr })
      end
      else begin
        buffer_load t ~addr ~data;
        Ok ()
      end
    | Buf_confirm ->
      let sector = t.buf_sector in
      if data <> 0x29 || not (in_buffer_sector t addr) then bad t ~addr ~data
      else begin
        t.seq <- Idle;
        if sector = t.suspended then begin
          t.ms.bad_sequences <- t.ms.bad_sequences + 1;
          Error (Bad_sequence { state = "erase_suspended"; addr; data })
        end
        else
          match program_buffer t with
          | exception S.Pulse_error e -> physics_failed t e
          | duration ->
            t.ms.programs <- t.ms.programs + 1;
            Tel.count "command_fsm/buffer_program";
            (* DQ7 reports the complement of the last word loaded *)
            let dq7 = 1 - (t.buf_data.(t.buf_last) land 1) in
            launch t op_program ~arg:dq7 duration;
            Ok ()
      end
    | _ when data = 0xF0 ->
      t.seq <- Idle;
      t.ms.resets <- t.ms.resets + 1;
      Ok ()
    | _ when data = 0xB0 -> Error Not_erasing
    | Idle when data = 0x30 && t.suspended >= 0 ->
      (* erase resume (0x30 doubles as the resume command) *)
      t.tm.ends_at <- t.tm.clock +. t.tm.remaining;
      t.op <- op_sector_erase;
      t.op_arg <- t.suspended;
      t.suspended <- -1;
      t.ms.resumes <- t.ms.resumes + 1;
      Tel.count "command_fsm/resume";
      Ok ()
    | Idle when addr = t.u1 && data = 0xAA ->
      t.seq <- Unlock1;
      Ok ()
    | Unlock1 when addr = t.u2 && data = 0x55 ->
      t.seq <- Unlocked;
      Ok ()
    | Unlocked when addr = t.u1 && data = 0xA0 ->
      t.seq <- Word_program;
      Ok ()
    | Unlocked when data = 0x25 ->
      t.buf_sector <- addr / t.cfg.words_per_sector;
      t.seq <- Buf_count;
      Ok ()
    | Unlocked when addr = t.u1 && data = 0x80 ->
      t.seq <- Erase_setup;
      Ok ()
    | Erase_setup when addr = t.u1 && data = 0xAA ->
      t.seq <- Erase_unlock1;
      Ok ()
    | Erase_unlock1 when addr = t.u2 && data = 0x55 ->
      t.seq <- Erase_unlocked;
      Ok ()
    | Erase_unlocked when data = 0x30 -> (
      t.seq <- Idle;
      let sector = addr / t.cfg.words_per_sector in
      if t.suspended >= 0 then begin
        (* no nested erase while another sector erase is suspended *)
        t.ms.bad_sequences <- t.ms.bad_sequences + 1;
        Error (Bad_sequence { state = "erase_suspended"; addr; data })
      end
      else
        match erase_sector_cells t ~sector with
        | exception S.Pulse_error e -> physics_failed t e
        | rounds ->
          t.ms.sector_erases <- t.ms.sector_erases + 1;
          Tel.count "command_fsm/sector_erase";
          launch t op_sector_erase ~arg:sector
            (float_of_int rounds *. erase_pulse.D.Program_erase.duration);
          Ok ())
    | Erase_unlocked when addr = t.u1 && data = 0x10 -> (
      t.seq <- Idle;
      if t.suspended >= 0 then begin
        t.ms.bad_sequences <- t.ms.bad_sequences + 1;
        Error (Bad_sequence { state = "erase_suspended"; addr; data })
      end
      else
        match erase_chip_cells t with
        | exception S.Pulse_error e -> physics_failed t e
        | duration ->
          t.ms.chip_erases <- t.ms.chip_erases + 1;
          Tel.count "command_fsm/chip_erase";
          launch t op_chip_erase ~arg:0 duration;
          Ok ())
    | _ -> bad t ~addr ~data)

(* a copy, so callers holding it do not see later updates *)
let stats t = { t.ms with bus_cycles = t.ms.bus_cycles }

let state_digest t =
  let f = Workload.digest_fold in
  let float h x = f h (Int64.to_int (Int64.bits_of_float x)) in
  let h = ref (S.fold_digest t.store f Workload.digest_empty) in
  h := float !h t.tm.clock;
  let m = t.ms in
  List.iter
    (fun v -> h := f !h v)
    [
      m.bus_cycles; m.data_reads; m.status_reads; m.programs;
      m.words_programmed; m.sector_erases; m.chip_erases; m.suspends;
      m.resumes; m.resets; m.program_pulses; m.erase_pulses;
      m.verify_timeouts; m.disturb_events; m.bad_sequences;
    ];
  h := f !h (Hashtbl.hash (state_name t));
  !h

module For_testing = struct
  type read_result =
    | Data of int
    | Status of { dq7 : int; dq6 : int; dq5 : int; dq2 : int }

  let read t ~addr =
    let w = read_word t ~addr in
    if w >= 0 then Data w
    else Status { dq7 = (w lsr 7) land 1; dq6 = (w lsr 6) land 1; dq5 = (w lsr 5) land 1;
                  dq2 = (w lsr 2) land 1 }

  let cell t ~idx =
    if idx < 0 || idx >= S.length t.store then
      invalid_arg "Command_fsm.cell: index out of range";
    S.view t.store idx
end
