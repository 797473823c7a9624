(* The serve_* workloads: a fleet of independent NOR service instances,
   each a closed loop that issues its next host command only when the
   previous one has completed (one outstanding command per instance).
   Instances run one after another on a domain, as the [serve] CLI runs
   them, so each instance's pulse caches start cold and its digests do
   not depend on what ran before it. *)

module S = Gnrflash_memory.Service
module W = Gnrflash_memory.Workload
module F = Gnrflash_memory.Command_fsm
module Ftl = Gnrflash_memory.Ftl
module Ecc = Gnrflash_memory.Ecc
module Tel = Gnrflash_telemetry.Telemetry
module Sweep = Gnrflash.Sweep
open Measure

type mix =
  | Mixed       (* Workload.default_profile: what [serve]/[run_trace] send *)
  | Read_heavy  (* uniform pages, 95% reads, no trims or suspends *)

type spec = { mix : mix; ops : int; (* per instance *) jobs : int }

let instances = 8

let profile mix svc =
  let base =
    {
      W.default_profile with
      W.pages = S.logical_pages svc;
      strings = S.default_config.S.strings;
    }
  in
  match mix with
  | Mixed -> base
  | Read_heavy ->
    {
      base with
      W.pattern = W.Uniform;
      read_fraction = 0.95;
      trim_fraction = 0.;
      suspend_fraction = 0.;
    }

(* Host-command classes, by index. *)
let classes = [| "read"; "write"; "suspend_write"; "trim" |]

let class_of = function
  | W.Cmd_read _ -> 0
  | W.Cmd_write { suspend = false; _ } -> 1
  | W.Cmd_write { suspend = true; _ } -> 2
  | W.Cmd_trim _ -> 3

type instance = { svc : S.t; cmds : W.host_cmd array }

(* Set-up: fresh services and their command streams, plus the domain
   pool on the parallel tier. [setup.(i)] times instance [i]'s service
   and stream, [setup.(instances)] the pool (0 on one domain); stream
   generation alone is timed for the workload layer. *)
let make_fleet spec ~seed =
  let gen_s = ref 0. and gen_words = ref 0. in
  let setup = Array.make (instances + 1) 0. in
  let fleet =
    Array.init instances (fun i ->
        let t0 = now_ns () in
        let svc = S.create (Gnrflash.Params.device ()) in
        let profile = profile spec.mix svc in
        let w0 = Gc.minor_words () in
        let cmds, dt =
          timed (fun () ->
              W.generate_commands ~seed:(Sweep.splitmix ~seed ~index:i) ~profile
                ~ops:spec.ops)
        in
        gen_s := !gen_s +. dt;
        gen_words := !gen_words +. (Gc.minor_words () -. w0);
        setup.(i) <- seconds_since t0;
        { svc; cmds })
  in
  if spec.jobs > 1 then begin
    let t0 = now_ns () in
    ignore (Sweep.init ~jobs:spec.jobs ~serial_cutoff:0. spec.jobs Fun.id : int array);
    setup.(instances) <- seconds_since t0
  end;
  (fleet, setup, !gen_s, !gen_words)

(* Where each instance's results land in the fleet-wide per-class
   buffers: class [k]'s buffer has [counts.(k)] slots, and instance [j]
   fills them from [offsets.(j).(k)] on, in issue order. *)
type layout = { counts : int array; offsets : int array array }

let layout fleet =
  let counts = Array.make (Array.length classes) 0 in
  let offsets =
    Array.map
      (fun inst ->
         let first = Array.copy counts in
         Array.iter
           (fun c ->
              let k = class_of c in
              counts.(k) <- counts.(k) + 1)
           inst.cmds;
         first)
      fleet
  in
  { counts; offsets }

let class_buffers l = Array.map (fun n -> Array.make n 0.) l.counts

type run = {
  executed : int;
  escaped : string option;  (* a Failure that escaped Service.exec *)
  busy_s : float;
  segments_s : float array;  (* host seconds of each [segment] of the loop *)
  minor_words : float;  (* this domain's allocation during the loop *)
}

(* The timing unit of the host-time figures: a run of consecutive commands
   of one instance, about a millisecond long. It repeats exactly on every
   repetition, and is short enough that some repetition usually runs it
   while the host leaves the program alone; a whole instance's loop, on
   two domains of a two-CPU host, rarely is. *)
let segment = 250

(* Runs instance [j], writing each command's model-time latency (and, on
   traced runs, its host time in µs) straight into the instance's slots
   of the per-class buffers, so no per-command copy is kept. Instances on
   different domains write disjoint slots. *)
let run_instance ~traced ~layout ~model ~host fleet j =
  let inst = fleet.(j) in
  let n = Array.length inst.cmds in
  let slot = Array.copy layout.offsets.(j) in
  let dev = S.device inst.svc in
  let segments_s = Array.make ((n + segment - 1) / segment) 0. in
  let executed = ref 0 in
  let minor0 = Gc.minor_words () in
  let t0 = now_ns () in
  let escaped =
    try
      for s = 0 to Array.length segments_s - 1 do
        let ts = now_ns () in
        for i = s * segment to min n ((s + 1) * segment) - 1 do
          let c = inst.cmds.(i) in
          let k = class_of c in
          let before = F.now dev in
          if traced then begin
            let h = now_ns () in
            S.exec inst.svc c;
            host.(k).(slot.(k)) <- float_of_int (now_ns () - h) *. 1e-3
          end
          else S.exec inst.svc c;
          model.(k).(slot.(k)) <- F.now dev -. before;
          slot.(k) <- slot.(k) + 1;
          executed := i + 1
        done;
        segments_s.(s) <- seconds_since ts
      done;
      None
    with Failure msg -> Some msg
  in
  let busy_s = seconds_since t0 in
  let minor_words = Gc.minor_words () -. minor0 in
  { executed = !executed; escaped; busy_s; segments_s; minor_words }

let run_fleet spec ~traced ~layout ~model ~host fleet =
  let run = run_instance ~traced ~layout ~model ~host fleet in
  let index = Array.init (Array.length fleet) Fun.id in
  if spec.jobs = 1 then Array.map run index
  else Sweep.map ~jobs:spec.jobs ~serial_cutoff:0. run index

(* Failed host commands of one instance: commands a Failure kept from
   completing, plus every accounting or integrity fault the report shows
   (lost ops, data mismatches, protocol errors, an FTL invariant
   violation). A report that itself fails counts every command. *)
let failures inst run report =
  let n = Array.length inst.cmds in
  match report with
  | None -> n
  | Some (r : S.report) ->
    (n - run.executed)
    + (if run.escaped = None then r.S.lost_ops else 0)
    + r.S.read_mismatches + r.S.verify_mismatches + r.S.fsm.F.bad_sequences
    + if r.S.invariant_error = None then 0 else 1

let fold_digests reports =
  let fold f =
    Array.fold_left
      (fun acc r ->
         W.digest_fold acc (match r with Some r -> f r | None -> -1))
      W.digest_empty reports
  in
  (fold (fun r -> r.S.trace_digest), fold (fun r -> r.S.state_digest))

(* Latency statistics of one command class, fleet-wide. *)
type class_stats = { p50 : float; tail : tail }

let class_stats sorted = { p50 = percentile sorted 0.5; tail = tail sorted }

(* Everything one repetition yields, reduced to scalars so that earlier
   repetitions do not stay live and inflate the heap. *)
type rep = {
  setup : float array;  (* per instance, then the pool *)
  gen_s : float;
  gen_words : float;
  wall_s : float;
  ops : int;
  host_writes : int;  (* write commands in the stream, suspended or not *)
  failed : int;
  escapes : string list;
  digests : int * int;
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  busy : float array;
  segments : float array;  (* every instance's segments, in fleet order *)
  model_time : float;
  model : class_stats array;  (* per class, simulated seconds *)
  fsm : F.stats array;
  report_s : float;
  host : class_stats array;   (* traced: per class, host µs *)
  tel : Tel.snapshot option;  (* traced: the library's own counters *)
  side : (string * float) list;  (* traced: timed replays into FTL and ECC *)
  side_checks : (string * bool) list;
}

(* The FTL layer on its own: the same stream replayed through the
   in-place FTL calls the service makes, without device or ECC work. *)
let replay_ftl cmds =
  let ftl = Ftl.create S.default_config.S.ftl in
  let cap = Ftl.logical_capacity ftl in
  Array.iter
    (function
      | W.Cmd_read { lpn } ->
        let (_ : (int * int) option) = Ftl.read ftl ~lpn:(lpn mod cap) in
        ()
      | W.Cmd_trim { lpn } -> Ftl.trim_in_place ftl ~lpn:(lpn mod cap)
      | W.Cmd_write { lpn; _ } ->
        (match Ftl.write_in_place ftl ~lpn:(lpn mod cap) with
         | Ok () ->
           let (_ : Ftl.phys_op list) = Ftl.take_journal ftl in
           ()
         | Error _ -> ()))
    cmds;
  Ftl.stats ftl

let side_layers fleet (reports : S.report option array) =
  let ftl_stats, ftl_s = timed (fun () -> Array.map (fun i -> replay_ftl i.cmds) fleet) in
  let ftl_agrees =
    Array.for_all2
      (fun st r -> match r with Some r -> r.S.ftl = st | None -> false)
      ftl_stats reports
  in
  let words =
    Array.of_list
      (List.concat_map
         (fun i ->
            List.filter_map
              (function W.Cmd_write { data; _ } -> Some data | _ -> None)
              (Array.to_list i.cmds))
         (Array.to_list fleet))
  in
  let n = max 1 (Array.length words) in
  let k = S.default_config.S.strings in
  let cws, enc_s = timed (fun () -> Array.map Ecc.encode words) in
  let decoded, dec_s = timed (fun () -> Array.map (Ecc.decode ~k) cws) in
  let round_trip =
    Array.for_all2
      (fun d w -> match d with Ecc.Clean d -> d = w | _ -> false)
      decoded words
  in
  let distinct = Hashtbl.create 256 in
  Array.iter (fun w -> Hashtbl.replace distinct w ()) words;
  let sum f = Array.fold_left (fun a st -> a + f st) 0 ftl_stats in
  let host_writes = sum (fun st -> st.Ftl.host_writes) in
  ( [
      ("ftl.host_s", ftl_s);
      ("ftl.gc_runs", float_of_int (sum (fun st -> st.Ftl.gc_runs)));
      ("ftl.erases", float_of_int (sum (fun st -> st.Ftl.erases)));
      ( "ftl.write_amplification",
        float_of_int (sum (fun st -> st.Ftl.device_writes))
        /. float_of_int (max 1 host_writes) );
      ("ecc.encode_ns", enc_s *. 1e9 /. float_of_int n);
      ("ecc.decode_ns", dec_s *. 1e9 /. float_of_int n);
      ("ecc.distinct_codewords", float_of_int (Hashtbl.length distinct));
    ],
    [ ("ftl replay matches the service's FTL", ftl_agrees);
      ("SEC-DED round-trips every written word", round_trip) ] )

let one_rep spec ~seed ~traced =
  let fleet, setup, gen_s, gen_words = make_fleet spec ~seed in
  let layout = layout fleet in
  let model = class_buffers layout in
  let host = if traced then class_buffers layout else [||] in
  if traced then Tel.reset ();
  let st0 = Gc.quick_stat () in
  let runs, wall_s =
    timed (fun () -> run_fleet spec ~traced ~layout ~model ~host fleet)
  in
  let st1 = Gc.quick_stat () in
  let tel = if traced then Some (Tel.snapshot ()) else None in
  let reports, report_s =
    timed (fun () ->
        Array.map
          (fun i -> match S.report i.svc with r -> Some r | exception Failure _ -> None)
          fleet)
  in
  let failed =
    Array.fold_left ( + ) 0
      (Array.mapi (fun i inst -> failures inst runs.(i) reports.(i)) fleet)
  in
  Array.iter (Array.sort Float.compare) model;
  Array.iter (Array.sort Float.compare) host;
  let side, side_checks = if traced then side_layers fleet reports else ([], []) in
  let present = Array.to_list reports |> List.filter_map Fun.id |> Array.of_list in
  {
    setup;
    gen_s;
    gen_words;
    wall_s;
    ops = Array.fold_left ( + ) 0 layout.counts;
    host_writes = layout.counts.(1) + layout.counts.(2);
    failed;
    escapes = Array.to_list runs |> List.filter_map (fun r -> r.escaped);
    digests = fold_digests reports;
    minor_words = Array.fold_left (fun a (r : run) -> a +. r.minor_words) 0. runs;
    (* one whole-program figure: OCaml 5 counts major words across domains *)
    major_words = st1.Gc.major_words -. st0.Gc.major_words;
    minor_collections = st1.Gc.minor_collections - st0.Gc.minor_collections;
    major_collections = st1.Gc.major_collections - st0.Gc.major_collections;
    busy = Array.map (fun (r : run) -> r.busy_s) runs;
    segments = Array.concat (Array.to_list (Array.map (fun (r : run) -> r.segments_s) runs));
    model_time = Array.fold_left (fun a r -> a +. r.S.model_time) 0. present;
    model = Array.map class_stats model;
    fsm = Array.map (fun r -> r.S.fsm) present;
    report_s;
    host = Array.map class_stats host;
    tel;
    side;
    side_checks;
  }

(* ---------- the workload run ---------- *)

let ops_per_s r = float_of_int r.ops /. r.wall_s
(* Block P/E cycles the host's writes demand at write amplification 1: a
   figure of the command stream alone, so an FTL that erases less for the
   same commands does not read as slower. *)
let demanded_cycles r =
  float_of_int r.host_writes /. float_of_int S.default_config.S.ftl.Ftl.pages_per_block

let sum_fsm f r = float_of_int (Array.fold_left (fun a st -> a + f st) 0 r.fsm)

let end_to_end spec reps =
  let first = List.hd reps in
  let best_s =
    best_seconds ~jobs:spec.jobs ~units:(fun r -> r.segments) ~busy:(fun r -> r.busy)
      ~wall:(fun r -> r.wall_s) reps
  in
  [
    ("setup_s", sum_of_fastest (fun r -> r.setup) reps);
    ("ops_per_s", float_of_int first.ops /. best_s);
    ("pe_cycles_per_s", demanded_cycles first /. best_s);
    ("minor_words_per_op", med (fun r -> r.minor_words /. float_of_int r.ops) reps);
    ("peak_heap_mb", peak_heap_mb ());
    ("model_time_s", (List.hd reps).model_time);
  ]

let model_metrics r =
  List.concat_map
    (fun (label, k) ->
       let m = r.model.(k) in
       [
         (Printf.sprintf "model_%s_p50_s" label, m.p50);
         (Printf.sprintf "model_%s_tail_s" label, m.tail.value);
         (Printf.sprintf "model_%s_tail_pct" label, m.tail.pct);
         (Printf.sprintf "model_%s_samples" label, float_of_int m.tail.samples);
       ])
    [ ("read", 0); ("write", 1) ]

(* The per-layer ledger. Counts come from the first traced repetition
   (they repeat exactly); host times are medians over the traced
   repetitions; GC and sweep figures come from the untraced ones, which
   carry no timer or telemetry cost. *)
let per_layer spec ~untraced ~traced =
  let t = List.hd traced in
  let ops = float_of_int t.ops in
  let service =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun k c ->
               [
                 (Printf.sprintf "service.%s.calls" c, float_of_int t.host.(k).tail.samples);
                 (Printf.sprintf "service.%s.host_p50_us" c, med (fun r -> r.host.(k).p50) traced);
                 (Printf.sprintf "service.%s.host_tail_us" c, med (fun r -> r.host.(k).tail.value) traced);
               ])
            classes))
  in
  let side name = (name, med (fun r -> List.assoc name r.side) traced) in
  let cell_pulses = sum_fsm (fun s -> s.F.program_pulses + s.F.erase_pulses) t in
  let tel = Option.get t.tel in
  [
    ("workload.gen_s", med (fun r -> r.gen_s) traced);
    ("workload.gen_words_per_op", t.gen_words /. ops);
  ]
  @ service
  @ [
    ("service.report_s", med (fun r -> r.report_s) traced);
    side "ftl.host_s";
    side "ftl.gc_runs";
    side "ftl.erases";
    side "ftl.write_amplification";
    side "ecc.encode_ns";
    side "ecc.decode_ns";
    side "ecc.distinct_codewords";
    ("command_fsm.bus_cycles_per_op", sum_fsm (fun s -> s.F.bus_cycles) t /. ops);
    ("command_fsm.programs", sum_fsm (fun s -> s.F.programs) t);
    ("command_fsm.sector_erases", sum_fsm (fun s -> s.F.sector_erases) t);
    ("command_fsm.suspends", sum_fsm (fun s -> s.F.suspends) t);
    ("command_fsm.verify_timeouts", sum_fsm (fun s -> s.F.verify_timeouts) t);
    ("cell_store.pulses_per_op", cell_pulses /. ops);
  ]
  @ physics_layers ~cell_pulses tel
      ~span_s:(fun name -> med (fun r -> snap_span_s (Option.get r.tel) name) traced)
  @ [
    ("sweep.instance_busy_s_max", med (fun r -> Array.fold_left Float.max 0. r.busy) untraced);
    ("sweep.instance_busy_s_min", med (fun r -> Array.fold_left Float.min infinity r.busy) untraced);
    ( "sweep.parallel_efficiency",
      med (fun r -> Array.fold_left ( +. ) 0. r.busy /. (float_of_int spec.jobs *. r.wall_s)) untraced );
    ("gc.minor_collections", med (fun r -> float_of_int r.minor_collections) untraced);
    ("gc.major_collections", med (fun r -> float_of_int r.major_collections) untraced);
    ("gc.major_words", med (fun r -> r.major_words) untraced);
    ("tracing.overhead_ratio", overhead_ratio ops_per_s ~untraced ~traced);
  ]
  @ model_metrics t

let bench spec ~name ~seed ~seconds ~trace =
  let reference =
    match Pinned.serve name seed with
    | Some d -> Some d
    | None when spec.jobs > 1 ->
      (* the parallel tier must reproduce the serial fleet exactly *)
      Some (one_rep { spec with jobs = 1 } ~seed ~traced:false).digests
    | None -> None
  in
  let untraced, traced =
    with_trace ~trace ~seconds (fun ~traced -> one_rep spec ~seed ~traced)
  in
  let all = untraced @ traced in
  let first = List.hd untraced in
  let reference = Option.value reference ~default:first.digests in
  let failed =
    List.fold_left
      (fun a r -> a + if r.digests <> reference then r.ops else min r.ops r.failed)
      0 all
  in
  let attempted = List.fold_left (fun a r -> a + r.ops) 0 all in
  let td, sd = first.digests in
  {
    attempted;
    failed;
    checks =
      [
        ( "fleet digests equal the reference on every repetition",
          List.for_all (fun r -> r.digests = reference) all );
        ("no Failure escaped Service.exec", List.for_all (fun r -> r.escapes = []) all);
      ]
      @ List.map
          (fun (name, _) ->
             (name, List.for_all (fun r -> List.assoc name r.side_checks) traced))
          (match traced with r :: _ -> r.side_checks | [] -> []);
    metrics = (if trace then per_layer spec ~untraced ~traced else end_to_end spec untraced);
    notes =
      [
        ("domains", string_of_int spec.jobs);
        ("fleet", Printf.sprintf "%d instances x %d commands" instances spec.ops);
        ( "repetitions",
          Printf.sprintf "%d untraced, %d traced" (List.length untraced) (List.length traced) );
        ( "ops_per_s by repetition",
          String.concat " " (List.map (fun r -> Printf.sprintf "%.0f" (ops_per_s r)) all) );
        ("trace_digest", Printf.sprintf "0x%016X" td);
        ("state_digest", Printf.sprintf "0x%016X" sd);
      ]
      @ List.map
          (fun (k, v) -> (k, Printf.sprintf "%.10g" v))
          (model_metrics first);
  }
