module S = Gnrflash_memory.Service
module C = Gnrflash_memory.Command_fsm
module W = Gnrflash_memory.Workload
module Ftl = Gnrflash_memory.Ftl
module E = Gnrflash_memory.Ecc
module F = Gnrflash_device.Fgt
open Gnrflash_testing.Testing

(* Small geometry: 4 blocks x 8 pages -> 21 logical pages, 4-bit data
   words carried in 8-bit SEC-DED codewords. *)
let small_cfg =
  { S.default_config with
    S.ftl = { Ftl.blocks = 4; pages_per_block = 8; gc_threshold = 4; endurance_limit = 1000 };
    strings = 4;
  }

let mk ?(config = small_cfg) () = S.create ~config F.paper_default

let profile =
  { W.default_profile with
    W.pattern = W.Zipf 1.1;
    read_fraction = 0.3;
    trim_fraction = 0.05;
    suspend_fraction = 0.1;
  }

let test_geometry () =
  let s = mk () in
  Alcotest.(check int) "logical pages" 21 (S.logical_pages s);
  let dc = C.config (S.device s) in
  Alcotest.(check int) "sectors = blocks" 4 dc.C.sectors;
  Alcotest.(check int) "words per sector = pages per block" 8
    dc.C.words_per_sector;
  Alcotest.(check int) "codeword width" (4 + E.overhead 4) dc.C.word_bits

let test_end_to_end_trace () =
  let s = mk () in
  let r = S.run_trace ~profile ~seed:7 ~ops:600 s in
  Alcotest.(check int) "all ops submitted" 600 r.S.ops;
  Alcotest.(check int) "no op lost" 0 r.S.lost_ops;
  Alcotest.(check int) "no read mismatches" 0 r.S.read_mismatches;
  Alcotest.(check int) "final scan clean" 0 r.S.verify_mismatches;
  Alcotest.(check int) "no protocol errors" 0 r.S.fsm.C.bad_sequences;
  check_true "invariants hold" (r.S.invariant_error = None);
  check_true "device time advanced" (r.S.model_time > 0.);
  check_true "writes landed" (r.S.writes > 0);
  check_true "reads hit mapped pages" (r.S.read_hits > 0);
  check_true "GC erases mirrored to the device"
    (r.S.fsm.C.sector_erases = r.S.ftl.Ftl.erases);
  Alcotest.(check int) "journal fully mirrored" r.S.ftl.Ftl.device_writes
    r.S.fsm.C.words_programmed;
  (* the latency table counts every command once, values ascending, and
     its percentiles are ordered and positive *)
  let t = r.S.latency in
  Alcotest.(check int) "every latency counted" 600
    (Array.fold_left ( + ) 0 t.S.counts);
  check_true "values strictly ascending"
    (Array.for_all Fun.id
       (Array.init (Array.length t.S.values - 1) (fun i ->
            t.S.values.(i) < t.S.values.(i + 1))));
  let l = S.latency_summary [| t |] in
  check_true "p50 > 0" (l.S.p50 > 0.);
  check_true "percentiles ordered"
    (l.S.p50 <= l.S.p95 && l.S.p95 <= l.S.p99 && l.S.p99 <= l.S.max)

let test_determinism_across_instances () =
  let run () =
    let s = mk () in
    S.run_trace ~profile ~seed:11 ~ops:400 s
  in
  let a = run () and b = run () in
  Alcotest.(check int) "trace digest stable" a.S.trace_digest b.S.trace_digest;
  Alcotest.(check int) "state digest stable" a.S.state_digest b.S.state_digest;
  let c = mk () in
  let c = S.run_trace ~profile ~seed:12 ~ops:400 c in
  check_true "different seed, different trace"
    (c.S.trace_digest <> a.S.trace_digest)

let test_suspend_exercised () =
  let s = mk () in
  let r =
    S.run_trace
      ~profile:{ profile with W.read_fraction = 0.; trim_fraction = 0.; suspend_fraction = 1. }
      ~seed:3 ~ops:800 s
  in
  check_true "suspends happened" (r.S.fsm.C.suspends > 0);
  Alcotest.(check int) "every suspend resumed" r.S.fsm.C.suspends
    r.S.fsm.C.resumes;
  Alcotest.(check int) "no op lost" 0 r.S.lost_ops;
  Alcotest.(check int) "final scan clean" 0 r.S.verify_mismatches

let test_device_full_is_accounted () =
  (* tiny endurance: the device dies mid-trace; rejected writes must be
     typed and accounted, never lost, and never an escaped internal error *)
  let s =
    mk
      ~config:
        { small_cfg with
          S.ftl = { small_cfg.S.ftl with Ftl.endurance_limit = 3 } }
      ()
  in
  let r =
    S.run_trace
      ~profile:{ profile with W.read_fraction = 0.1; trim_fraction = 0. }
      ~seed:5 ~ops:1500 s
  in
  check_true "device filled up" (r.S.rejected_full > 0);
  Alcotest.(check int) "no op lost" 0 r.S.lost_ops;
  check_true "invariants hold at end of life" (r.S.invariant_error = None);
  check_true "blocks retired" (r.S.ftl.Ftl.retired_blocks > 0)

let test_exec_single_commands () =
  let s = mk () in
  S.exec s (W.Cmd_write { lpn = 3; data = [| 1; 0; 1; 1 |]; suspend = false });
  S.exec s (W.Cmd_read { lpn = 3 });
  S.exec s (W.Cmd_trim { lpn = 3 });
  S.exec s (W.Cmd_read { lpn = 3 });
  let r = S.report s in
  Alcotest.(check int) "ops" 4 r.S.ops;
  Alcotest.(check int) "one write" 1 r.S.writes;
  Alcotest.(check int) "two reads" 2 r.S.reads;
  Alcotest.(check int) "one hit (pre-trim)" 1 r.S.read_hits;
  Alcotest.(check int) "one trim" 1 r.S.trims;
  Alcotest.(check int) "clean" 0 r.S.read_mismatches

(* A negative logical page wraps into [0, logical_pages) like a large
   one: -1 and -22 are page 20 of 21, for writes, reads and trims
   alike, so the run is the one that names page 20 directly. *)
let test_negative_lpn_wraps () =
  let run lpns =
    let s = mk () in
    List.iter
      (fun lpn ->
        S.exec s (W.Cmd_write { lpn; data = [| 1; 0; 0; 1 |]; suspend = false });
        S.exec s (W.Cmd_read { lpn });
        S.exec s (W.Cmd_trim { lpn });
        S.exec s (W.Cmd_read { lpn }))
      lpns;
    S.report s
  in
  let neg = run [ -1; -22 ] and pos = run [ 20; 20 ] in
  Alcotest.(check int) "two writes" 2 neg.S.writes;
  Alcotest.(check int) "two hits" 2 neg.S.read_hits;
  Alcotest.(check int) "clean" 0 neg.S.read_mismatches;
  Alcotest.(check int) "no op lost" 0 neg.S.lost_ops;
  Alcotest.(check int) "trace digest" pos.S.trace_digest neg.S.trace_digest;
  Alcotest.(check int) "state digest" pos.S.state_digest neg.S.state_digest

(* Data is packed before the FTL sees the write, so a non-bit entry is
   rejected with nothing written. *)
let test_rejects_non_bit_data () =
  let s = mk () in
  Alcotest.check_raises "entry 2"
    (Invalid_argument "Service.exec: data entries must be 0 or 1") (fun () ->
      S.exec s (W.Cmd_write { lpn = 1; data = [| 0; 2; 1; 0 |]; suspend = false }));
  let r = S.report s in
  Alcotest.(check int) "nothing written" 0 r.S.writes;
  Alcotest.(check int) "FTL untouched" 0 r.S.ftl.Ftl.host_writes

(* Native code only, like every allocation pin below. A warm read
   (mapped page, codeword already decoded once) allocates nothing: the
   bus answers through the unboxed [Command_fsm.read_word], and the FTL
   lookup, packed sense, memoized SEC-DED decode, integer compare and the
   latency record, timed off the FSM's flat clock record, allocate
   nothing either. *)
let warm_read_words = 0.

let test_warm_read_allocation () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let s = mk () in
  S.exec s (W.Cmd_write { lpn = 3; data = [| 1; 0; 1; 1 |]; suspend = false });
  let hit = W.Cmd_read { lpn = 3 } in
  S.exec s hit;
  let reps = 500 in
  let before = Gc.minor_words () in
  for _ = 1 to reps do
    S.exec s hit
  done;
  let per_read = (Gc.minor_words () -. before) /. float_of_int reps in
  Alcotest.(check (float 0.)) "minor words per warm read" warm_read_words
    per_read;
  let r = S.report s in
  Alcotest.(check int) "every read hit" (reps + 1) r.S.read_hits;
  Alcotest.(check int) "every read matched" 0 r.S.read_mismatches

(* Minor words of one [exec]. *)
let exec_words s cmd =
  let w0 = Gc.minor_words () in
  S.exec s cmd;
  Gc.minor_words () -. w0

(* A warm write -- its codeword memoized, the program and erase pulse
   transitions replayed from the cell store's memos, the FTL journal
   grown by three passes, and its latency counted in place in the
   latency table (a latency seen for the first time takes an empty
   slot, which allocates nothing either) -- allocates nothing: neither
   a simple write (one program) nor one that garbage-collects (the
   victim's valid pages relocated, then a sector erase). Each command is
   measured on its own and classed by what it did to the device. *)
let test_warm_write_allocation () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let s = mk () in
  let pages = S.logical_pages s in
  let cmds =
    Array.init 500 (fun i ->
        W.Cmd_write { lpn = i * 5 mod pages; data = [| 1; 0; 1; 1 |]; suspend = false })
  in
  for _ = 1 to 3 do
    Array.iter (S.exec s) cmds
  done;
  let dev = S.device s in
  let simple = ref 0 and collecting = ref 0 in
  Array.iter
    (fun cmd ->
      let st0 = C.stats dev in
      let w = exec_words s cmd in
      let st1 = C.stats dev in
      let programmed = st1.C.words_programmed - st0.C.words_programmed
      and erased = st1.C.sector_erases - st0.C.sector_erases in
      if erased = 0 && programmed = 1 then begin
        incr simple;
        Alcotest.(check (float 0.)) "minor words per warm simple write" 0. w
      end
      else if erased > 0 && programmed > 1 then begin
        incr collecting;
        Alcotest.(check (float 0.)) "minor words per warm collecting write" 0. w
      end)
    cmds;
  check_true "simple writes measured" (!simple > 100);
  check_true "collecting writes measured" (!collecting > 10);
  Alcotest.(check int) "no op lost" 0 (S.report s).S.lost_ops

(* A warm suspended write allocates nothing either: its first GC erase
   is suspended, then peeked at by an int read inside its sector (a
   status answer: DQ2 toggles, no [Status] record is built) and one in
   the next sector (data), then resumed. *)
let test_warm_suspended_write_allocation () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let s = mk () in
  let pages = S.logical_pages s in
  let cmds =
    Array.init 500 (fun i ->
        W.Cmd_write { lpn = i * 5 mod pages; data = [| 0; 1; 1; 0 |]; suspend = true })
  in
  for _ = 1 to 3 do
    Array.iter (S.exec s) cmds
  done;
  let dev = S.device s in
  let suspended = ref 0 in
  Array.iter
    (fun cmd ->
      let st0 = C.stats dev in
      let w = exec_words s cmd in
      let st1 = C.stats dev in
      if st1.C.suspends > st0.C.suspends then begin
        incr suspended;
        Alcotest.(check int) "one suspend" 1 (st1.C.suspends - st0.C.suspends);
        Alcotest.(check int) "in-sector peek answered status" 1
          (st1.C.status_reads - st0.C.status_reads);
        Alcotest.(check int) "out-of-sector peek answered data" 1
          (st1.C.data_reads - st0.C.data_reads);
        Alcotest.(check (float 0.)) "minor words per warm suspended write" 0. w
      end)
    cmds;
  check_true "suspended writes measured" (!suspended > 10);
  Alcotest.(check int) "no op lost" 0 (S.report s).S.lost_ops

(* Trims, and reads of the pages they unmapped, allocate nothing. *)
let test_trim_allocation () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let s = mk () in
  let pages = S.logical_pages s in
  for lpn = 0 to pages - 1 do
    S.exec s (W.Cmd_write { lpn; data = [| 0; 1; 1; 0 |]; suspend = false })
  done;
  let trims = Array.init pages (fun lpn -> W.Cmd_trim { lpn })
  and reads = Array.init pages (fun lpn -> W.Cmd_read { lpn }) in
  Array.iter
    (fun cmd -> Alcotest.(check (float 0.)) "minor words per trim" 0. (exec_words s cmd))
    trims;
  Array.iter
    (fun cmd ->
      Alcotest.(check (float 0.)) "minor words per unmapped read" 0. (exec_words s cmd))
    reads;
  let r = S.report s in
  Alcotest.(check int) "every page trimmed" pages r.S.trims;
  Alcotest.(check int) "no read hit" 0 r.S.read_hits

(* [run_trace] generates each command as it executes it; running the
   same commands out of a materialized array reaches the same report. *)
let test_streamed_trace_matches_array () =
  let streamed = S.run_trace ~profile ~seed:9 ~ops:500 (mk ()) in
  let s = mk () in
  let profile = { profile with W.pages = S.logical_pages s; strings = small_cfg.S.strings } in
  Array.iter (S.exec s) (W.generate_commands ~seed:9 ~profile ~ops:500);
  let arrayed = S.report s in
  Alcotest.(check int) "trace digest" arrayed.S.trace_digest streamed.S.trace_digest;
  Alcotest.(check int) "state digest" arrayed.S.state_digest streamed.S.state_digest;
  check_true "same report" (arrayed = streamed)

(* The exact table of one latency multiset: distinct values ascending,
   each with how often it occurs. *)
let table_of lats =
  let values = List.sort_uniq Float.compare (Array.to_list lats) in
  let count v = Array.fold_left (fun n x -> if x = v then n + 1 else n) 0 lats in
  { S.values = Array.of_list values; counts = Array.of_list (List.map count values) }

(* The summary by its definition: sort every latency of the fleet, then
   index the sorted array at rank [round (p (n - 1))]. *)
let oracle_summary instances =
  let all = Array.concat (Array.to_list instances) in
  Array.sort Float.compare all;
  let n = Array.length all in
  let at p =
    if n = 0 then 0.
    else all.(int_of_float (Float.round (p *. float_of_int (n - 1))))
  in
  { S.p50 = at 0.50; p95 = at 0.95; p99 = at 0.99; max = at 1. }

let same_summary (a : S.latency_summary) (b : S.latency_summary) =
  let bits x = Int64.bits_of_float x in
  List.for_all2 Int64.equal
    [ bits a.S.p50; bits a.S.p95; bits a.S.p99; bits a.S.max ]
    [ bits b.S.p50; bits b.S.p95; bits b.S.p99; bits b.S.max ]

(* Latencies take few distinct values (zero for a trim), so a fleet's
   multisets are mostly duplicates; some instances serve nothing. Merging
   the instances' tables in either order reads the oracle's values. *)
let prop_summary_matches_sorted_oracle =
  prop "latency_summary = sorted-concatenation oracle" ~count:300
    QCheck2.Gen.(
      list_size (int_range 0 6)
        (array_size (oneof [ return 0; int_range 0 300 ])
           (oneof
              [
                oneofl [ 0.; 1.0004e-3; 1.0004e-3; 5.00073e-2; 2.5e-6 ];
                map (fun k -> float_of_int k *. 1e-7) (int_range 0 40);
                float_bound_inclusive 1e-1;
              ])))
    (fun instances ->
      let instances = Array.of_list instances in
      let expected = oracle_summary instances in
      let tables = Array.map table_of instances in
      let reversed = Array.of_list (List.rev (Array.to_list tables)) in
      same_summary expected (S.latency_summary tables)
      && same_summary expected (S.latency_summary reversed))

(* The service's own table holds exactly the latencies seen from outside:
   the device clock read around every [exec]. *)
let test_table_counts_observed_latencies () =
  let run seed =
    let s = mk () in
    let dev = S.device s in
    let profile =
      { profile with W.pages = S.logical_pages s; strings = small_cfg.S.strings }
    in
    let seen =
      Array.map
        (fun cmd ->
          let t0 = C.now dev in
          S.exec s cmd;
          C.now dev -. t0)
        (W.generate_commands ~seed ~profile ~ops:400)
    in
    (seen, (S.report s).S.latency)
  in
  let fleet = Array.map run [| 1; 2; 3 |] in
  Array.iter
    (fun (seen, table) -> check_true "table = observed multiset" (table = table_of seen))
    fleet;
  check_true "fleet summary = oracle"
    (same_summary
       (oracle_summary (Array.map fst fleet))
       (S.latency_summary (Array.map snd fleet)))

let prop_no_op_lost =
  prop "every command is accounted under random profiles" ~count:10
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
       let s = mk () in
       let r = S.run_trace ~profile ~seed ~ops:200 s in
       r.S.lost_ops = 0 && r.S.verify_mismatches = 0
       && r.S.invariant_error = None
       && r.S.reads + r.S.writes + r.S.rejected_full + r.S.trims = r.S.ops)

(* ---------- reference fleets ---------- *)

(* The default-config service on the paper device, driven through [ops]
   host commands of the default profile, seeded per instance as `serve`
   seeds its fleet. *)
let reference_instance ~index ~ops =
  let s = S.create (Gnrflash.Params.device ()) in
  S.run_trace ~seed:(Gnrflash.Sweep.splitmix ~seed:2014 ~index) ~ops s

(* The fleet digests of the record-based cell path that the SoA cell
   store replaced, captured on it before the refactor: 8 instances, run
   serially here. The store must reproduce both fleets bit for bit. *)
let test_record_path_fleets () =
  let fleet ~per_instance =
    let results = Array.init 8 (fun index -> reference_instance ~index ~ops:per_instance) in
    let fold f =
      Array.fold_left (fun acc r -> W.digest_fold acc (f r)) W.digest_empty results
    in
    (fold (fun r -> r.S.trace_digest), fold (fun r -> r.S.state_digest))
  in
  List.iter
    (fun (per_instance, (trace, state)) ->
      let t, st = fleet ~per_instance in
      let name what = Printf.sprintf "8 x %d %s digest" per_instance what in
      Alcotest.(check int) (name "trace") trace t;
      Alcotest.(check int) (name "state") state st)
    [
      (250, (0x2B1EBC781D8A520D, 0x329D851F83DC4DF0));
      (13_000, (0x220177D6E385E5D6, 0x359CE3F68DF1567C));
    ]

(* Native only. Minor words per host command over one reference instance
   of 13,000 commands, report included and [Service.create] not. The
   stores replay memoized pulses and verify reads without allocating and
   warm writes, trims and unmapped reads allocate nothing (the pins
   above); the residual is the commands themselves, the mapped reads'
   [Data] answers, the report, and the first-occurrence exact solves.
   Measured 13.1 on a 2-vCPU x86-64 VM with OCaml 5.1.1 (20.4 before the
   latency table, 630 before the fused kernels); the budget leaves ~15%
   headroom. A polymorphic compare or a closure per command in
   [Workload.commands], or a boxed float in [exec]'s latency count, blows
   it. *)
let trace_words_per_op = 15.4

let test_trace_allocation () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let ops = 13_000 in
  let w0 = Gc.minor_words () in
  let s = S.create (Gnrflash.Params.device ()) in
  let setup = Gc.minor_words () -. w0 in
  let (_ : S.report) =
    S.run_trace ~seed:(Gnrflash.Sweep.splitmix ~seed:2014 ~index:0) ~ops s
  in
  let per_op = (Gc.minor_words () -. w0 -. setup) /. float_of_int ops in
  check_true
    (Printf.sprintf "%.2f minor words/op within %.1f" per_op trace_words_per_op)
    (per_op <= trace_words_per_op)

let () =
  Alcotest.run "service"
    [
      ( "service",
        [
          case "geometry" test_geometry;
          case "end to end trace" test_end_to_end_trace;
          case "determinism" test_determinism_across_instances;
          case "suspend exercised" test_suspend_exercised;
          case "device full accounted" test_device_full_is_accounted;
          case "single commands" test_exec_single_commands;
          case "negative lpn wraps" test_negative_lpn_wraps;
          case "non-bit data rejected" test_rejects_non_bit_data;
          case "warm read allocation" test_warm_read_allocation;
          case "warm write allocation" test_warm_write_allocation;
          case "warm suspended write allocation"
            test_warm_suspended_write_allocation;
          case "trim and unmapped read allocation" test_trim_allocation;
          case "streamed trace matches array" test_streamed_trace_matches_array;
          case "latency table counts observed latencies"
            test_table_counts_observed_latencies;
          case "record-path fleet digests" test_record_path_fleets;
          case "reference trace allocation" test_trace_allocation;
          prop_no_op_lost;
          prop_summary_matches_sorted_oracle;
        ] );
    ]
