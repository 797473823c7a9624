module W = Gnrflash_memory.Workload
module Nb = Gnrflash_memory.Nand_block
module F = Gnrflash_device.Fgt
open Gnrflash_testing.Testing

let test_generate_counts () =
  let ops = W.generate ~seed:1 W.Uniform ~pages:4 ~strings:4 ~ops:50 ~read_fraction:0.5 in
  Alcotest.(check int) "op count" 50 (List.length ops)

let test_generate_deterministic () =
  let a = W.generate ~seed:7 W.Uniform ~pages:4 ~strings:4 ~ops:30 ~read_fraction:0.3 in
  let b = W.generate ~seed:7 W.Uniform ~pages:4 ~strings:4 ~ops:30 ~read_fraction:0.3 in
  check_true "same seed, same trace" (a = b);
  let c = W.generate ~seed:8 W.Uniform ~pages:4 ~strings:4 ~ops:30 ~read_fraction:0.3 in
  check_true "different seed differs" (a <> c)

let test_generate_read_fraction_extremes () =
  let reads_only = W.generate ~seed:1 W.Uniform ~pages:4 ~strings:4 ~ops:20 ~read_fraction:1. in
  check_true "all reads" (List.for_all (function W.Read _ -> true | W.Write _ -> false) reads_only);
  let writes_only = W.generate ~seed:1 W.Uniform ~pages:4 ~strings:4 ~ops:20 ~read_fraction:0. in
  check_true "all writes" (List.for_all (function W.Write _ -> true | W.Read _ -> false) writes_only)

let test_sequential_pattern () =
  let ops = W.generate ~seed:1 W.Sequential ~pages:3 ~strings:2 ~ops:6 ~read_fraction:0. in
  let pages = List.map (function W.Write { page; _ } -> page | W.Read { page } -> page) ops in
  Alcotest.(check (list int)) "round robin" [ 0; 1; 2; 0; 1; 2 ] pages

let test_zipf_skew () =
  let ops = W.generate ~seed:3 (W.Zipf 1.5) ~pages:16 ~strings:2 ~ops:400 ~read_fraction:0. in
  let counts = Array.make 16 0 in
  List.iter
    (function W.Write { page; _ } | W.Read { page } -> counts.(page) <- counts.(page) + 1)
    ops;
  (* rank-1 page must dominate the tail half of the distribution *)
  let tail = Array.fold_left ( + ) 0 (Array.sub counts 8 8) in
  check_true "head heavier than tail" (counts.(0) > tail);
  check_true "pages in range" (List.for_all
    (function W.Write { page; _ } | W.Read { page } -> page >= 0 && page < 16) ops)

let test_generate_validation () =
  Alcotest.check_raises "read fraction"
    (Invalid_argument "Workload.generate: read_fraction out of [0, 1]") (fun () ->
      ignore (W.generate ~seed:1 W.Uniform ~pages:2 ~strings:2 ~ops:5 ~read_fraction:1.5));
  Alcotest.check_raises "zipf exponent"
    (Invalid_argument "Workload.generate: zipf exponent <= 0") (fun () ->
      ignore (W.generate ~seed:1 (W.Zipf 0.) ~pages:2 ~strings:2 ~ops:5 ~read_fraction:0.))

(* [commands] checks its profile once, when partially applied, and each
   failure names [commands] itself, not [generate] *)
let test_commands_validation () =
  let p = W.default_profile in
  let rejects msg profile =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (W.commands ~seed:1 ~profile : int -> W.host_cmd))
  in
  rejects "Workload.commands: bad sizes" { p with W.pages = 0 };
  rejects "Workload.commands: fractions out of range"
    { p with W.read_fraction = 0.7; trim_fraction = 0.4 };
  rejects "Workload.commands: suspend_fraction out of [0, 1]"
    { p with W.suspend_fraction = -0.1 };
  rejects "Workload.commands: zipf exponent <= 0" { p with W.pattern = W.Zipf 0. }

(* ---- PR regression: structural determinism of the generator ---------- *)

(* Golden digest, pinned. Op [i] is a pure function of [(seed, i)] via
   per-op splitmix streams, so this value is independent of evaluation
   order, list-building strategy and execution tier. The pre-fix generator
   threaded one mutable PRNG through [List.init], whose evaluation order
   is an implementation detail of the stdlib — any reordering silently
   produced a different trace. A digest change here means every archived
   trace and benchmark baseline is invalidated: bump deliberately. *)
let test_golden_trace_digest () =
  let ops = W.generate ~seed:123 (W.Zipf 1.1) ~pages:64 ~strings:8 ~ops:256 ~read_fraction:0.3 in
  Alcotest.(check int) "pinned op-trace digest" 0x14184D2B34E5B1C2 (W.For_testing.digest_ops ops)

let test_golden_command_digest () =
  let cmds = W.generate_commands ~seed:123 ~profile:W.default_profile ~ops:256 in
  Alcotest.(check int) "pinned command-trace digest" 0x25B28F51A731F4AC
    (W.For_testing.digest_commands cmds)

let test_prefix_stability () =
  (* per-op seeding: a longer trace extends a shorter one, op for op *)
  let long = W.generate ~seed:42 W.Uniform ~pages:16 ~strings:4 ~ops:100 ~read_fraction:0.4 in
  let short = W.generate ~seed:42 W.Uniform ~pages:16 ~strings:4 ~ops:40 ~read_fraction:0.4 in
  check_true "prefix equal" (short = List.filteri (fun i _ -> i < 40) long)

let test_generate_commands_shape () =
  let profile = { W.default_profile with W.pages = 32; strings = 6 } in
  let cmds = W.generate_commands ~seed:5 ~profile ~ops:300 in
  Alcotest.(check int) "command count" 300 (Array.length cmds);
  Array.iter
    (function
      | W.Cmd_read { lpn } | W.Cmd_trim { lpn } ->
        check_true "lpn in range" (lpn >= 0 && lpn < 32)
      | W.Cmd_write { lpn; data; _ } ->
        check_true "lpn in range" (lpn >= 0 && lpn < 32);
        Alcotest.(check int) "data width" 6 (Array.length data);
        Array.iter (fun b -> check_true "bits" (b = 0 || b = 1)) data)
    cmds;
  let again = W.generate_commands ~seed:5 ~profile ~ops:300 in
  check_true "deterministic" (W.For_testing.digest_commands cmds = W.For_testing.digest_commands again)

let test_generate_commands_fractions () =
  let all_reads =
    W.generate_commands ~seed:3
      ~profile:{ W.default_profile with W.read_fraction = 1.; trim_fraction = 0. }
      ~ops:64
  in
  check_true "all reads"
    (Array.for_all (function W.Cmd_read _ -> true | _ -> false) all_reads);
  let all_suspend =
    W.generate_commands ~seed:3
      ~profile:
        { W.default_profile with
          W.read_fraction = 0.; trim_fraction = 0.; suspend_fraction = 1. }
      ~ops:64
  in
  check_true "all writes flagged for suspend"
    (Array.for_all
       (function W.Cmd_write { suspend; _ } -> suspend | _ -> false)
       all_suspend)

(* The streamed generator and the array one are the same trace: command
   [i] of [commands] is element [i] of [generate_commands], for every
   pattern and any length. *)
let prop_commands_match_array =
  prop "commands i = generate_commands element i" ~count:100
    QCheck2.Gen.(
      quad (int_range 0 1_000_000) (int_range 0 3) (int_range 0 300) (int_range 1 40))
    (fun (seed, pat, ops, pages) ->
      let pattern =
        match pat with
        | 0 -> W.Sequential
        | 1 -> W.Uniform
        | 2 -> W.Zipf 1.1
        | _ -> W.Zipf 0.6
      in
      let profile = { W.default_profile with W.pattern; pages; strings = 1 + (seed mod 9) } in
      let command = W.commands ~seed ~profile in
      let cmds = W.generate_commands ~seed ~profile ~ops in
      Array.length cmds = ops && Array.for_all2 ( = ) cmds (Array.init ops command))

let test_replay_small_trace () =
  let pages = 2 and strings = 4 in
  let block = Nb.create F.paper_default ~pages ~strings in
  let ops = W.generate ~seed:11 W.Sequential ~pages ~strings ~ops:6 ~read_fraction:0.5 in
  let stats = check_ok "replay" (W.replay block ops) in
  Alcotest.(check int) "ops accounted" 6 (stats.W.writes + stats.W.reads);
  Alcotest.(check int) "no verify failures" 0 stats.W.failed_verifies;
  Alcotest.(check int) "no broken cells" 0 stats.W.broken_cells

let test_replay_rewrite_triggers_erase () =
  let pages = 1 and strings = 2 in
  let block = Nb.create F.paper_default ~pages ~strings in
  let data = [| 0; 0 |] in
  let ops = [ W.Write { page = 0; data }; W.Write { page = 0; data } ] in
  let stats = check_ok "replay" (W.replay block ops) in
  Alcotest.(check int) "second write needs an erase" 1 stats.W.erase_cycles

let () =
  Alcotest.run "workload"
    [
      ( "workload",
        [
          case "op counts" test_generate_counts;
          case "deterministic" test_generate_deterministic;
          case "read fraction extremes" test_generate_read_fraction_extremes;
          case "sequential pattern" test_sequential_pattern;
          case "zipf skew" test_zipf_skew;
          case "generate validation" test_generate_validation;
          case "commands validation" test_commands_validation;
          case "golden trace digest" test_golden_trace_digest;
          case "golden command digest" test_golden_command_digest;
          case "prefix stability" test_prefix_stability;
          case "generate_commands shape" test_generate_commands_shape;
          case "generate_commands fractions" test_generate_commands_fractions;
          case "replay small trace" test_replay_small_trace;
          case "rewrite triggers erase" test_replay_rewrite_triggers_erase;
          prop_commands_match_array;
        ] );
    ]
