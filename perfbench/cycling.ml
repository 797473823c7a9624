(* The endurance_ensemble workload: process-variation cells, each cycled
   program/erase until it wears out or its cycle budget runs out, one
   cell at a time on one domain. No FTL, FSM or ECC is involved: the run
   loads the pulse physics (exact first-occurrence solves, surrogate
   build/promotion/fallback, warm-start and replay caches) and the
   cell-store memo replay of the long cycling tail. *)

module D = Gnrflash_device
module E = Gnrflash_memory.Endurance
module W = Gnrflash_memory.Workload
open Measure

let budget = 10_000
let program_pulse = { D.Program_erase.vgs = 15.; duration = 100e-6 }
let erase_pulse = { D.Program_erase.vgs = -15.; duration = 100e-6 }

(* How a cell's run ended: wear-out (the window closing or the oxide
   breaking) and an exhausted budget are normal results; anything else
   is a solver error and counts as a failed cell. *)
let outcome (r : E.run) =
  match r.E.failure with
  | None -> 0
  | Some "window closed" -> 1
  | Some "Cell: oxide broken" -> 2
  | Some _ -> 3

type rep = {
  setup : float array;  (* per cell: drawing its device *)
  gen_words : float;
  wall_s : float;
  cells : int;
  cycles : int;
  failed : int;
  digest : int;
  lifetimes : int array;
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  busy : float array;
  tel : Gnrflash_telemetry.Telemetry.snapshot option;
}

let one_rep ~cells ~seed ~traced =
  let base = Gnrflash.Params.device () in
  let setup = Array.make cells 0. in
  let w0 = Gc.minor_words () in
  let devices =
    Array.init cells (fun index ->
        let dev, dt = timed (fun () -> D.Variation.perturbed ~seed ~index ~base ()) in
        setup.(index) <- dt;
        dev)
  in
  let gen_words = Gc.minor_words () -. w0 in
  if traced then Gnrflash_telemetry.Telemetry.reset ();
  let st0 = Gc.quick_stat () in
  let minor0 = Gc.minor_words () in
  let (runs, busy), wall_s =
    timed (fun () ->
        let busy = Array.make cells 0. in
        let runs =
          Array.mapi
            (fun i dev ->
               let r, dt =
                 timed (fun () ->
                     E.cycle_cell ~program_pulse ~erase_pulse dev ~cycles:budget)
               in
               busy.(i) <- dt;
               r)
            devices
        in
        (runs, busy))
  in
  let minor_words = Gc.minor_words () -. minor0 in
  let st1 = Gc.quick_stat () in
  let tel = if traced then Some (Gnrflash_telemetry.Telemetry.snapshot ()) else None in
  let digest =
    Array.fold_left
      (fun h r ->
         let h = W.digest_fold (W.digest_fold h r.E.cycles_survived) (outcome r) in
         List.fold_left
           (fun h s -> W.digest_fold h (Int64.to_int (Int64.bits_of_float s.E.window)))
           h r.E.samples)
      W.digest_empty runs
  in
  {
    setup;
    gen_words;
    wall_s;
    cells;
    cycles = Array.fold_left (fun a r -> a + r.E.cycles_survived) 0 runs;
    failed = Array.fold_left (fun a r -> a + if outcome r = 3 then 1 else 0) 0 runs;
    digest;
    lifetimes = Array.map (fun r -> r.E.cycles_survived) runs;
    minor_words;
    major_words = st1.Gc.major_words -. st0.Gc.major_words;
    minor_collections = st1.Gc.minor_collections - st0.Gc.minor_collections;
    major_collections = st1.Gc.major_collections - st0.Gc.major_collections;
    busy;
    tel;
  }

let cycles_per_s r = float_of_int r.cycles /. r.wall_s
let model_time r =
  float_of_int r.cycles *. (program_pulse.D.Program_erase.duration +. erase_pulse.duration)

let end_to_end reps =
  let cycles = float_of_int (List.hd reps).cycles in
  let best_s =
    best_seconds ~jobs:1 ~units:(fun r -> r.busy) ~busy:(fun r -> r.busy)
      ~wall:(fun r -> r.wall_s) reps
  in
  [
    ("setup_s", sum_of_fastest (fun r -> r.setup) reps);
    (* one operation of this workload is one program/erase cycle *)
    ("ops_per_s", cycles /. best_s);
    ("pe_cycles_per_s", cycles /. best_s);
    ("minor_words_per_op", med (fun r -> r.minor_words /. float_of_int r.cycles) reps);
    ("peak_heap_mb", peak_heap_mb ());
    ("model_time_s", model_time (List.hd reps));
  ]

(* Only the layers this workload reaches; the service-side ones are
   reported as zero by the caller. *)
let per_layer ~untraced ~traced =
  let t = List.hd traced in
  let cycles = float_of_int t.cycles in
  let cell_pulses = 2. *. cycles in
  [
    ("workload.gen_s", med (fun r -> Array.fold_left ( +. ) 0. r.setup) traced);
    ("workload.gen_words_per_op", t.gen_words /. cycles);
    ("cell_store.pulses_per_op", cell_pulses /. cycles);
  ]
  @ physics_layers ~cell_pulses (Option.get t.tel)
      ~span_s:(fun name -> med (fun r -> snap_span_s (Option.get r.tel) name) traced)
  @ [
    ("sweep.instance_busy_s_max", med (fun r -> Array.fold_left Float.max 0. r.busy) untraced);
    ("sweep.instance_busy_s_min", med (fun r -> Array.fold_left Float.min infinity r.busy) untraced);
    ("sweep.parallel_efficiency", med (fun r -> Array.fold_left ( +. ) 0. r.busy /. r.wall_s) untraced);
    ("gc.minor_collections", med (fun r -> float_of_int r.minor_collections) untraced);
    ("gc.major_collections", med (fun r -> float_of_int r.major_collections) untraced);
    ("gc.major_words", med (fun r -> r.major_words) untraced);
    ("tracing.overhead_ratio", overhead_ratio cycles_per_s ~untraced ~traced);
  ]

let bench ~cells ~seed ~seconds ~trace =
  let untraced, traced =
    with_trace ~trace ~seconds (fun ~traced -> one_rep ~cells ~seed ~traced)
  in
  let all = untraced @ traced in
  let first = List.hd untraced in
  let reference =
    Option.value (Pinned.endurance seed) ~default:(first.digest, first.cycles)
  in
  let failed =
    List.fold_left
      (fun a r -> a + if (r.digest, r.cycles) <> reference then r.cells else r.failed)
      0 all
  in
  let lifetimes = Array.copy first.lifetimes in
  Array.sort compare lifetimes;
  {
    attempted = List.fold_left (fun a r -> a + r.cells) 0 all;
    failed;
    checks =
      [
        ( "ensemble digest equals the reference on every repetition",
          List.for_all (fun r -> (r.digest, r.cycles) = reference) all );
      ];
    metrics = (if trace then per_layer ~untraced ~traced else end_to_end untraced);
    notes =
      [
        ("domains", "1");
        ("ensemble", Printf.sprintf "%d cells x %d-cycle budget" cells budget);
        ( "repetitions",
          Printf.sprintf "%d untraced, %d traced" (List.length untraced) (List.length traced) );
        ( "ops_per_s by repetition",
          String.concat " " (List.map (fun r -> Printf.sprintf "%.0f" (cycles_per_s r)) all) );
        ("digest", Printf.sprintf "0x%016X" first.digest);
        ("cycles survived", string_of_int first.cycles);
        ( "lifetime min/median/max",
          Printf.sprintf "%d / %d / %d" lifetimes.(0)
            lifetimes.(Array.length lifetimes / 2)
            lifetimes.(Array.length lifetimes - 1) );
      ];
  }
