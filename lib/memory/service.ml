[@@@gnrflash.hot]
module Tel = Gnrflash_telemetry.Telemetry

type config = {
  ftl : Ftl.config;
  strings : int;
  poll_interval : float;
}

let default_config =
  {
    ftl = Ftl.default_config;
    strings = 8;
    poll_interval = 0.;
  }

type latency_table = {
  values : float array;
  counts : int array;
}

type latency_summary = {
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

type report = {
  ops : int;
  reads : int;
  read_hits : int;
  writes : int;
  rejected_full : int;
  trims : int;
  lost_ops : int;
  read_mismatches : int;
  verify_mismatches : int;
  model_time : float;
  latency : latency_table;
  trace_digest : int;
  state_digest : int;
  fsm : Command_fsm.stats;
  ftl : Ftl.stats;
  invariant_error : string option;
}

(* SEC-DED memo: packed int -> packed int, open-addressed over two flat
   int columns and probed like Cell_store's charge memo. Keys are
   non-negative (a packed word is narrower than an int), so -1 marks an
   empty slot. One memo maps data to codewords, another codewords to
   data (-1 when uncorrectable). *)
type cw_memo = {
  mutable cw_keys : int array;
  mutable cw_words : int array;
  mutable cw_used : int;
}

type t = {
  cfg : config;
  fsm : Command_fsm.t;
  ftl : Ftl.t; (* mutable, owned by this instance *)
  u1 : int; (* the device's unlock addresses, 0x555 and 0x2AA wrapped *)
  u2 : int;
  store : int array; (* ground truth per logical page: packed data, -1 none *)
  cw_memo : cw_memo; (* data -> codeword *)
  dec_memo : cw_memo; (* sensed codeword -> data, -1 uncorrectable *)
  mutable ops : int;
  mutable reads : int;
  mutable read_hits : int;
  mutable writes : int;
  mutable rejected_full : int;
  mutable trims : int;
  mutable read_mismatches : int;
  mutable trace : int;
  (* exact latency table: distinct model latency -> commands that took
     it, open-addressed like [cw_memo]; a count of 0 marks an empty slot *)
  mutable lat_keys : float array;
  mutable lat_counts : int array;
  mutable lat_distinct : int;
}

let word_bits_for strings = strings + Ecc.overhead strings

(* Latencies are fixed-width pulses plus whole bus cycles: a 130k-command
   bench instance sees 143 distinct values at most, so the table doubles
   only on much longer runs. *)
let lat_capacity = 512

let memo () =
  { cw_keys = Array.make 64 (-1); cw_words = Array.make 64 0; cw_used = 0 }

let create ?(config = default_config) device =
  if config.strings <= 0 then invalid_arg "Service.create: strings must be > 0";
  let fsm_config =
    {
      Command_fsm.default_config with
      sectors = config.ftl.Ftl.blocks;
      words_per_sector = config.ftl.Ftl.pages_per_block;
      word_bits = word_bits_for config.strings;
    }
  in
  let ftl = Ftl.create config.ftl in
  let fsm = Command_fsm.create ~config:fsm_config device in
  {
    cfg = config;
    fsm;
    ftl;
    u1 = 0x555 mod Command_fsm.words fsm;
    u2 = 0x2AA mod Command_fsm.words fsm;
    store = Array.make (Ftl.logical_capacity ftl) (-1);
    cw_memo = memo ();
    dec_memo = memo ();
    ops = 0;
    reads = 0;
    read_hits = 0;
    writes = 0;
    rejected_full = 0;
    trims = 0;
    read_mismatches = 0;
    trace = Workload.digest_empty;
    lat_keys = Array.make lat_capacity 0.;
    lat_counts = Array.make lat_capacity 0;
    lat_distinct = 0;
  }

let logical_pages s = Array.length s.store
let device s = s.fsm

(* ---------- bus helpers ---------- *)

let bus_write s ~addr ~data =
  match Command_fsm.write s.fsm ~addr ~data with
  | Ok () -> ()
  | Error e ->
    failwith
      (Printf.sprintf "Service: device rejected 0x%X @ 0x%X: %s" data addr
         (Command_fsm.error_to_string e))

let finish s =
  if s.cfg.poll_interval > 0. then
    ignore (Command_fsm.poll_ready s.fsm ~interval:s.cfg.poll_interval)
  else Command_fsm.wait_ready s.fsm

(* bit [i] of the packed word is [bits.(i)] *)
let pack bits =
  let w = ref 0 in
  for i = Array.length bits - 1 downto 0 do
    let b = bits.(i) in
    if b land lnot 1 <> 0 then
      invalid_arg "Service.exec: data entries must be 0 or 1";
    w := (!w lsl 1) lor b
  done;
  !w

let cw_slot m key =
  let mask = Array.length m.cw_keys - 1 in
  let i = ref (Cell_store.probe_hash key land mask) in
  while m.cw_keys.(!i) <> -1 && m.cw_keys.(!i) <> key do
    i := (!i + 1) land mask
  done;
  !i

let rec cw_add m key word =
  if 2 * (m.cw_used + 1) > Array.length m.cw_keys then begin
    (* keep load factor under 1/2: rehash into twice the capacity *)
    let keys = m.cw_keys and words = m.cw_words in
    m.cw_keys <- Array.make (2 * Array.length keys) (-1);
    m.cw_words <- Array.make (2 * Array.length keys) 0;
    m.cw_used <- 0;
    Array.iteri (fun i k -> if k <> -1 then cw_add m k words.(i)) keys;
    cw_add m key word
  end
  else begin
    let i = cw_slot m key in
    m.cw_keys.(i) <- key;
    m.cw_words.(i) <- word;
    m.cw_used <- m.cw_used + 1
  end

(* One SEC-DED encode per distinct data word per instance; the hot loop
   replays packed codewords out of the memo. *)
let codeword_for s data =
  let m = s.cw_memo in
  let i = cw_slot m data in
  if m.cw_keys.(i) = data then m.cw_words.(i)
  else begin
    let bits = Array.init s.cfg.strings (fun b -> (data lsr b) land 1) in
    let w = pack (Ecc.encode bits) in
    cw_add m data w;
    w
  end

(* One SEC-DED decode per distinct sensed codeword per instance. *)
let data_of s cw =
  let m = s.dec_memo in
  let i = cw_slot m cw in
  if m.cw_keys.(i) = cw then m.cw_words.(i)
  else begin
    let d = Ecc.decode_packed ~k:s.cfg.strings cw in
    cw_add m cw d;
    d
  end

let addr_of s ~block ~page =
  (block * s.cfg.ftl.Ftl.pages_per_block) + page

(* ---------- mirrored device operations ---------- *)

let program_word s ~addr ~word =
  bus_write s ~addr:s.u1 ~data:0xAA;
  bus_write s ~addr:s.u2 ~data:0x55;
  bus_write s ~addr:s.u1 ~data:0xA0;
  bus_write s ~addr ~data:word;
  finish s

(* Data for one journaled program: GC relocations replay the stored
   ground truth; the single host-initiated entry carries the new data. *)
let data_for s ~host_lpn ~host_data ~lpn ~gc =
  if gc then begin
    let d = s.store.(lpn) in
    if d < 0 then
      failwith
        (Printf.sprintf "Service: GC relocated lpn %d with no ground truth" lpn);
    d
  end
  else if lpn <> host_lpn then
    failwith
      (Printf.sprintf "Service: host program journaled for lpn %d, expected %d"
         lpn host_lpn)
  else host_data

(* The data word of journal entry [i]: see [data_for]. *)
let entry_word s (j : Ftl.journal) ~host_lpn ~host_data i =
  codeword_for s
    (data_for s ~host_lpn ~host_data ~lpn:j.Ftl.lpn.(i) ~gc:(j.Ftl.flag.(i) = 1))

(* Buffer-programs journal entries [first, first + count) (programs to
   [sector]). *)
let program_buffer s j ~sector ~count ~host_lpn ~host_data first =
  let sa = sector * s.cfg.ftl.Ftl.pages_per_block in
  bus_write s ~addr:s.u1 ~data:0xAA;
  bus_write s ~addr:s.u2 ~data:0x55;
  bus_write s ~addr:sa ~data:0x25;
  bus_write s ~addr:sa ~data:(count - 1);
  for i = first to first + count - 1 do
    bus_write s
      ~addr:(addr_of s ~block:j.Ftl.block.(i) ~page:j.Ftl.page.(i))
      ~data:(entry_word s j ~host_lpn ~host_data i)
  done;
  bus_write s ~addr:sa ~data:0x29;
  finish s

let erase_sector s ~sector ~suspend =
  let sa = sector * s.cfg.ftl.Ftl.pages_per_block in
  bus_write s ~addr:s.u1 ~data:0xAA;
  bus_write s ~addr:s.u2 ~data:0x55;
  bus_write s ~addr:s.u1 ~data:0x80;
  bus_write s ~addr:s.u1 ~data:0xAA;
  bus_write s ~addr:s.u2 ~data:0x55;
  bus_write s ~addr:sa ~data:0x30;
  if suspend && not (Command_fsm.ready s.fsm) then begin
    (* let the erase run a little, then suspend it and peek at the device *)
    Command_fsm.step_quarter_erase_pulse s.fsm;
    let cfg = Command_fsm.config s.fsm in
    if not (Command_fsm.ready s.fsm) then begin
      bus_write s ~addr:sa ~data:0xB0;
      (* a read inside the suspended sector answers with DQ2 toggling... *)
      ignore (Command_fsm.read_word s.fsm ~addr:sa : int);
      (* ...while the next sector (wrapping to 0) serves data as usual *)
      if cfg.Command_fsm.sectors > 1 then
        ignore (Command_fsm.read_word s.fsm ~addr:(sa + cfg.Command_fsm.words_per_sector) : int);
      bus_write s ~addr:sa ~data:0x30 (* resume *)
    end
  end;
  finish s

(* Programs to [block] from journal entry [i] on, up to [cap]. *)
let rec run_length (j : Ftl.journal) ~block ~cap n i =
  if i < j.Ftl.length && j.Ftl.page.(i) >= 0 && j.Ftl.block.(i) = block && n < cap
  then run_length j ~block ~cap (n + 1) (i + 1)
  else n

(* Walks the journal in place from entry [i], batching maximal
   same-sector runs of programs through the write buffer; only the first
   erase of a suspend-flagged write is suspended. *)
let rec mirror s j ~host_lpn ~host_data ~suspend i =
  if i < j.Ftl.length then begin
    let block = j.Ftl.block.(i) and page = j.Ftl.page.(i) in
    if page < 0 then begin
      erase_sector s ~sector:block ~suspend;
      mirror s j ~host_lpn ~host_data ~suspend:false (i + 1)
    end
    else begin
      let cap = (Command_fsm.config s.fsm).Command_fsm.write_buffer_words in
      let count = run_length j ~block ~cap 0 i in
      if count = 1 then
        program_word s ~addr:(addr_of s ~block ~page)
          ~word:(entry_word s j ~host_lpn ~host_data i)
      else program_buffer s j ~sector:block ~count ~host_lpn ~host_data i;
      mirror s j ~host_lpn ~host_data ~suspend (i + count)
    end
  end

(* ---------- host commands ---------- *)

let fold v s = s.trace <- Workload.digest_fold s.trace v

let[@inline] fold_float x s =
  s.trace <- Workload.digest_fold s.trace (Int64.to_int (Int64.bits_of_float x))

(* Counts [n] more commands of latency [x]. Inlined, so [exec] passes
   [x] unboxed. *)
let[@inline] add_latency s (x : float) n =
  let mask = Array.length s.lat_counts - 1 in
  let i = ref (Cell_store.probe_hash (Int64.to_int (Int64.bits_of_float x)) land mask) in
  while s.lat_counts.(!i) <> 0 && not (Float.equal s.lat_keys.(!i) x) do
    i := (!i + 1) land mask
  done;
  if s.lat_counts.(!i) = 0 then begin
    s.lat_keys.(!i) <- x;
    s.lat_distinct <- s.lat_distinct + 1
  end;
  s.lat_counts.(!i) <- s.lat_counts.(!i) + n

(* Rehash into twice the capacity, keeping the load factor under 1/2. *)
let grow_latencies s =
  let keys = s.lat_keys and counts = s.lat_counts in
  s.lat_keys <- Array.make (2 * Array.length keys) 0.;
  s.lat_counts <- Array.make (2 * Array.length keys) 0;
  s.lat_distinct <- 0;
  Array.iteri (fun j n -> if n > 0 then add_latency s keys.(j) n) counts

let exec_read s ~lpn =
  s.reads <- s.reads + 1;
  fold 1 s;
  fold lpn s;
  let addr = Ftl.location s.ftl ~lpn in
  if addr < 0 then fold 0 s
  else begin
    s.read_hits <- s.read_hits + 1;
    let cw = Command_fsm.read_word s.fsm ~addr in
    if cw < 0 then
      (* the service always waits for ready, so a status answer on the
         read path is a protocol violation *)
      failwith "Service: data read answered with status while ready";
    let d = data_of s cw in
    let matches = d >= 0 && d = s.store.(lpn) in
    fold (Bool.to_int matches) s;
    if not matches then begin
      s.read_mismatches <- s.read_mismatches + 1;
      Tel.count "service/read_mismatch"
    end
  end

let exec_write s ~lpn ~data ~suspend =
  if Array.length data <> s.cfg.strings then
    invalid_arg "Service.exec: data width does not match [strings]";
  let packed = pack data in
  match Ftl.write_in_place s.ftl ~lpn with
  | Error Ftl.Device_full ->
    s.rejected_full <- s.rejected_full + 1;
    fold 3 s;
    fold lpn s;
    Tel.count "service/rejected_full"
  | Error (Ftl.Out_of_range _ as e) ->
    (* [lpn] was reduced modulo the logical capacity, so this is a bug *)
    failwith ("Service: " ^ Ftl.error_to_string e)
  | Ok () ->
    mirror s (Ftl.journal s.ftl) ~host_lpn:lpn ~host_data:packed ~suspend 0;
    Ftl.clear_journal s.ftl;
    s.store.(lpn) <- packed;
    s.writes <- s.writes + 1;
    fold 2 s;
    fold lpn s;
    for i = 0 to Array.length data - 1 do
      fold data.(i) s
    done

(* [lpn] reduced into [0, logical_pages), dividing only out of range *)
let page_of s lpn =
  let n = logical_pages s in
  if lpn >= 0 && lpn < n then lpn
  else
    let r = lpn mod n in
    if r < 0 then r + n else r

(* The latency is timed off [Command_fsm.now], which inlines to an unboxed
   load, and counted by the inlined [add_latency]: passing [t0] or [dt] to
   a function that is not inlined would box it. *)
let exec s cmd =
  s.ops <- s.ops + 1;
  let t0 = Command_fsm.now s.fsm in
  (match cmd with
   | Workload.Cmd_read { lpn } -> exec_read s ~lpn:(page_of s lpn)
   | Workload.Cmd_trim { lpn } ->
     let lpn = page_of s lpn in
     s.trims <- s.trims + 1;
     Ftl.trim_in_place s.ftl ~lpn;
     s.store.(lpn) <- -1;
     fold 4 s;
     fold lpn s
   | Workload.Cmd_write { lpn; data; suspend } ->
     exec_write s ~lpn:(page_of s lpn) ~data ~suspend);
  let dt = Command_fsm.now s.fsm -. t0 in
  add_latency s dt 1;
  if 2 * s.lat_distinct > Array.length s.lat_counts then grow_latencies s;
  fold_float dt s

(* ---------- reporting ---------- *)

(* The table's entries, values ascending. *)
let latency_table s =
  let slots = Array.make s.lat_distinct 0 and k = ref 0 in
  Array.iteri
    (fun i c ->
       if c > 0 then begin
         slots.(!k) <- i;
         incr k
       end)
    s.lat_counts;
  Array.sort (fun i j -> Float.compare s.lat_keys.(i) s.lat_keys.(j)) slots;
  {
    values = Array.map (fun i -> s.lat_keys.(i)) slots;
    counts = Array.map (fun i -> s.lat_counts.(i)) slots;
  }

(* The value of rank [round (p (n - 1))] among a fleet's [n] latencies,
   walking every table's entries in value order and summing counts. *)
let latency_summary tables =
  let values = Array.concat (List.map (fun t -> t.values) (Array.to_list tables))
  and counts = Array.concat (List.map (fun t -> t.counts) (Array.to_list tables)) in
  let order = Array.init (Array.length values) Fun.id in
  Array.sort (fun i j -> Float.compare values.(i) values.(j)) order;
  let n = Array.fold_left ( + ) 0 counts in
  let at p =
    let rank = int_of_float (Float.round (p *. float_of_int (n - 1))) in
    let rec walk k seen =
      let seen = seen + counts.(order.(k)) in
      if seen > rank then values.(order.(k)) else walk (k + 1) seen
    in
    if n = 0 then 0. else walk 0 0
  in
  { p50 = at 0.50; p95 = at 0.95; p99 = at 0.99; max = at 1. }

let verify_scan s =
  let mismatches = ref 0 in
  Array.iteri
    (fun lpn expect ->
       if expect >= 0 then begin
         let addr = Ftl.location s.ftl ~lpn in
         if addr < 0 || data_of s (Command_fsm.sense_word s.fsm ~addr) <> expect
         then incr mismatches
       end)
    s.store;
  !mismatches

let state_digest s =
  let h = ref (Command_fsm.state_digest s.fsm) in
  let f v = h := Workload.digest_fold !h v in
  for lpn = 0 to logical_pages s - 1 do
    f (Ftl.location s.ftl ~lpn)
  done;
  let st = Ftl.stats s.ftl in
  List.iter f
    [
      st.Ftl.host_writes; st.Ftl.device_writes; st.Ftl.gc_runs; st.Ftl.erases;
      st.Ftl.retired_blocks; st.Ftl.max_erase_count; st.Ftl.min_erase_count;
    ];
  !h

let report s =
  let accounted = s.reads + s.writes + s.rejected_full + s.trims in
  {
    ops = s.ops;
    reads = s.reads;
    read_hits = s.read_hits;
    writes = s.writes;
    rejected_full = s.rejected_full;
    trims = s.trims;
    lost_ops = s.ops - accounted;
    read_mismatches = s.read_mismatches;
    verify_mismatches = verify_scan s;
    model_time = Command_fsm.now s.fsm;
    latency = latency_table s;
    trace_digest = s.trace;
    state_digest = state_digest s;
    fsm = Command_fsm.stats s.fsm;
    ftl = Ftl.stats s.ftl;
    invariant_error =
      (match Ftl.check_invariants s.ftl with
       | Ok () -> None
       | Error msg -> Some msg);
  }

let run_trace ?profile ~seed ~ops s =
  if ops < 0 then invalid_arg "Service.run_trace: ops < 0";
  let profile =
    {
      (Option.value profile ~default:Workload.default_profile) with
      Workload.pages = logical_pages s;
      strings = s.cfg.strings;
    }
  in
  let command = Workload.commands ~seed ~profile in
  for i = 0 to ops - 1 do
    exec s (command i)
  done;
  report s
