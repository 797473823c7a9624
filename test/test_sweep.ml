module Sweep = Gnrflash.Sweep
module Tel = Gnrflash_telemetry.Telemetry
open Gnrflash_testing.Testing

(* a float-heavy mapped function: parity checks below compare with (=), so
   bit-identical means the parallel assembly really is order-preserving *)
let work x = (sin (x *. 1.7) *. exp (-.x *. x /. 50.)) +. (x /. 3.)

(* ~serial_cutoff:0. forces the pool path, whose fixed chunk size
   max 1 (n / (8·jobs)) then runs from 1 up to 12 elements over these
   sizes, with and without a short last chunk. *)
let prop_map_parity =
  prop "map ~jobs bit-identical to Array.map"
    QCheck2.Gen.(
      pair
        (array_size (int_range 0 200) (float_range (-100.) 100.))
        (int_range 1 6))
    (fun (xs, jobs) ->
       Sweep.map ~jobs ~serial_cutoff:0. work xs = Array.map work xs)

let prop_mapi_parity =
  prop "mapi carries the right index to every element"
    QCheck2.Gen.(pair (int_range 0 50) (int_range 1 5))
    (fun (n, jobs) ->
       let xs = Array.init n (fun i -> float_of_int i) in
       Sweep.mapi ~jobs (fun i x -> (i, work x)) xs
       = Array.mapi (fun i x -> (i, work x)) xs)

let test_jobs_invariant () =
  (* same ensemble for every pool size; ~serial_cutoff:0. forces the pool
     so this really checks the parallel assembly, not the auto-serial
     shortcut. Its chunk size max 1 (n / (8·jobs)) is 1 at n = 2, 3 and
     at n = 41 on 4 jobs, and leaves a short last chunk at n = 41 on 2
     jobs (2), n = 100 (6 and 3) and n = 257 (16 and 8). *)
  List.iter
    (fun n ->
       let xs = Array.init n (fun i -> (float_of_int i /. 7.) -. 2.) in
       let reference = Array.map work xs in
       List.iter
         (fun jobs ->
            check_true
              (Printf.sprintf "n=%d jobs=%d" n jobs)
              (Sweep.map ~jobs ~serial_cutoff:0. work xs = reference))
         [ 1; 2; 4 ])
    [ 2; 3; 41; 100; 257 ]

let test_grid_layout () =
  let outer = [| 1.; 2.; 3. |] and inner = [| 10.; 20. |] in
  let g = Sweep.grid ~jobs:2 (fun a b -> (a, b)) ~outer ~inner in
  Alcotest.(check int) "rows" 3 (Array.length g);
  Array.iteri
    (fun i row ->
       Alcotest.(check int) "cols" 2 (Array.length row);
       Array.iteri
         (fun j (a, b) ->
            check_close ~tol:0. "outer" outer.(i) a;
            check_close ~tol:0. "inner" inner.(j) b)
         row)
    g

let test_empty_and_edges () =
  check_true "empty map" (Sweep.map ~jobs:4 work [||] = [||]);
  check_true "init 0" (Sweep.init ~jobs:4 0 float_of_int = [||]);
  check_true "singleton" (Sweep.map ~jobs:4 work [| 2. |] = [| work 2. |]);
  check_true "map_list order"
    (Sweep.map_list ~jobs:3 (fun x -> -x) [ 1; 2; 3; 4; 5 ]
     = [ -1; -2; -3; -4; -5 ]);
  check_true "empty grid"
    (Sweep.grid ~jobs:2 (fun a b -> a +. b) ~outer:[||] ~inner:[| 1. |] = [||])

let test_validation () =
  Alcotest.check_raises "jobs 0" (Invalid_argument "Sweep: jobs < 1") (fun () ->
      ignore (Sweep.map ~jobs:0 work [| 1.; 2. |]));
  Alcotest.check_raises "negative init" (Invalid_argument "Sweep.init: n < 0")
    (fun () -> ignore (Sweep.init ~jobs:2 (-1) float_of_int))

let test_exception_propagates () =
  (* 48 elements on 3 jobs: chunks of 2 *)
  Alcotest.check_raises "worker exception reaches caller"
    (Failure "boom at 17") (fun () ->
      ignore
        (Sweep.init ~jobs:3 ~serial_cutoff:0. 48 (fun i ->
             if i = 17 then failwith "boom at 17" else i)));
  (* ... and through the auto-serial path, including from the probe itself *)
  Alcotest.check_raises "auto-serial exception reaches caller"
    (Failure "boom at 3") (fun () ->
      ignore
        (Sweep.init ~jobs:3 8 (fun i ->
             if i = 3 then failwith "boom at 3" else i)));
  Alcotest.check_raises "probe exception reaches caller"
    (Failure "boom at 0") (fun () ->
      ignore (Sweep.init ~jobs:3 8 (fun _ -> failwith "boom at 0")))

let test_splitmix () =
  let a = Sweep.splitmix ~seed:1 ~index:0 in
  check_true "deterministic" (a = Sweep.splitmix ~seed:1 ~index:0);
  check_true "non-negative" (a >= 0);
  check_true "index decorrelates" (a <> Sweep.splitmix ~seed:1 ~index:1);
  check_true "seed decorrelates" (a <> Sweep.splitmix ~seed:2 ~index:0);
  (* no collisions over a small grid of streams *)
  let seen = Hashtbl.create 256 in
  for seed = 0 to 15 do
    for index = 0 to 15 do
      Hashtbl.replace seen (Sweep.splitmix ~seed ~index) ()
    done
  done;
  Alcotest.(check int) "256 distinct hashes" 256 (Hashtbl.length seen)

(* Known answers, taken from the closure-based implementation this
   straight-line one replaced: every seeded trace and ensemble in the
   repository depends on these exact values. *)
let test_splitmix_known_answers () =
  List.iter
    (fun (seed, index, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "hash (%d, %d)" seed index)
        expected
        (Gnrflash_prng.Splitmix.hash ~seed ~index))
    [
      (0, 0, 1299394637241201967);
      (1, 0, 3979221637616645486);
      (2014, 7, 509665111568217680);
      (-1, 3, 2354552051501760649);
      (-7919, 42, 57245684879937913);
      (max_int, 1, 4495297030871882835);
      (123, -5, 3598728750679607064);
    ]

(* Native code only: bytecode boxes every Int64. *)
let test_splitmix_allocates_nothing () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for index = 0 to 9_999 do
    acc := !acc lxor Gnrflash_prng.Splitmix.hash ~seed:2014 ~index
  done;
  let words = Gc.minor_words () -. w0 in
  check_true "hashes are non-negative" (!acc >= 0);
  Alcotest.(check (float 0.)) "minor words over 10k hashes" 0. words

let test_default_jobs () =
  let saved = Sweep.default_jobs () in
  Fun.protect
    ~finally:(fun () -> Sweep.set_default_jobs saved)
    (fun () ->
       Sweep.set_default_jobs 3;
       Alcotest.(check int) "set" 3 (Sweep.default_jobs ());
       Sweep.set_default_jobs 0;
       Alcotest.(check int) "clamped to 1" 1 (Sweep.default_jobs ());
       check_true "available >= 1" (Sweep.available_jobs () >= 1))

(* instrumented workload: counters + a span inside the mapped function, so
   the totals exercise the per-domain sinks and the pool-join merge *)
let counted_run ~jobs ~n =
  Tel.reset ();
  Tel.enable ();
  Fun.protect ~finally:Tel.disable (fun () ->
      let out =
        Sweep.init ~jobs ~serial_cutoff:0. n (fun i ->
            Tel.count "sweep_test/evals";
            Tel.span "sweep_test/inner" (fun () -> work (float_of_int i)))
      in
      let evals = Tel.For_testing.counter_total "sweep_test/evals" in
      let span_calls =
        match Tel.For_testing.span_stat "sweep_test/inner" with
        | Some s -> s.Tel.calls
        | None -> 0
      in
      (out, evals, span_calls))

(* n = 32 runs chunks of 2 on 2 jobs and of 1 on 4; n = 100 chunks of 6
   and 3, each with a short last chunk *)
let test_telemetry_totals_match_serial () =
  List.iter
    (fun n ->
       let out1, evals1, calls1 = counted_run ~jobs:1 ~n in
       Alcotest.(check int) "serial evals" n evals1;
       Alcotest.(check int) "serial span calls" n calls1;
       List.iter
         (fun jobs ->
            let outp, evalsp, callsp = counted_run ~jobs ~n in
            check_true "results match serial" (outp = out1);
            Alcotest.(check int)
              (Printf.sprintf "evals at n=%d jobs=%d" n jobs)
              evals1 evalsp;
            Alcotest.(check int)
              (Printf.sprintf "span calls at n=%d jobs=%d" n jobs)
              calls1 callsp)
         [ 2; 4 ])
    [ 32; 100 ]

let test_telemetry_context_prefix_adopted () =
  Tel.reset ();
  Tel.enable ();
  Fun.protect ~finally:Tel.disable (fun () ->
      Tel.span "outer_sweep" (fun () ->
          ignore
            (Sweep.init ~jobs:2 ~serial_cutoff:0. 8 (fun i ->
                 Tel.count "hit";
                 i)));
      (* workers counted under the submitting domain's span path, exactly
         like a serial run would *)
      Alcotest.(check int) "prefixed key" 8 (Tel.For_testing.counter "outer_sweep/hit");
      Alcotest.(check int) "bare key unused" 0 (Tel.For_testing.counter "hit"))

(* The auto-serial heuristic: a cheap tiny sweep at jobs>1 must engage it
   (counter fires, result bit-identical), and ~serial_cutoff:0. must fully
   disable it. *)
let test_auto_serial_heuristic () =
  Tel.reset ();
  Tel.enable ();
  Fun.protect ~finally:(fun () -> Tel.disable (); Tel.reset ()) @@ fun () ->
  let xs = Array.init 16 (fun i -> float_of_int i /. 3.) in
  let serial = Array.map work xs in
  (* a generous cutoff so the probe extrapolation cannot flake: 16 sin/exp
     evaluations are nowhere near a second *)
  let auto = Sweep.map ~jobs:4 ~serial_cutoff:1.0 work xs in
  check_true "auto-serial result bit-identical" (auto = serial);
  Alcotest.(check int) "heuristic engaged" 1 (Tel.For_testing.counter_total "sweep/auto_serial");
  let forced = Sweep.map ~jobs:4 ~serial_cutoff:0. work xs in
  check_true "forced-pool result bit-identical" (forced = serial);
  Alcotest.(check int) "cutoff 0 disables the heuristic" 1
    (Tel.For_testing.counter_total "sweep/auto_serial");
  (* jobs:1 never probes and never counts *)
  ignore (Sweep.map ~jobs:1 ~serial_cutoff:1.0 work xs);
  Alcotest.(check int) "serial path does not count" 1
    (Tel.For_testing.counter_total "sweep/auto_serial")

(* Regression guard for the single-probe misroute: a first-call artifact (a
   surrogate table build, a WKB cache fill) used to inflate the per-element
   estimate and push cheap medium grids onto the pool path. The probe now
   takes the minimum of elements 0 and 1, so one expensive first call must
   not defeat the auto-serial heuristic. *)
let test_probe_ignores_first_call_artifact () =
  Tel.reset ();
  Tel.enable ();
  Fun.protect ~finally:(fun () -> Tel.disable (); Tel.reset ()) @@ fun () ->
  let cold = ref true in
  let f i =
    if !cold then begin
      (* simulate a one-off cache build: ~20 ms of busy work, far beyond
         serial_cutoff when extrapolated over the whole sweep *)
      cold := false;
      let t0 = Unix.gettimeofday () in
      while Unix.gettimeofday () -. t0 < 0.02 do () done
    end;
    work (float_of_int i)
  in
  let out = Sweep.init ~jobs:4 64 f in
  check_true "result matches serial"
    (out = Array.init 64 (fun i -> work (float_of_int i)));
  Alcotest.(check int) "warm probe routes a cheap sweep serially" 1
    (Tel.For_testing.counter_total "sweep/auto_serial")

(* The tentpole: the pool is process-lifetime. A second parallel sweep must
   reuse the domains the first one spawned — spawn count stays flat. *)
let test_pool_persists_across_calls () =
  let xs = Array.init 64 float_of_int in
  ignore (Sweep.map ~jobs:2 ~serial_cutoff:0. work xs);
  check_true "pool retains at least one domain" (Gnrflash_parallel.Pool.For_testing.size () >= 1);
  let before = Sweep.pool_spawned () in
  for _ = 1 to 5 do
    ignore (Sweep.map ~jobs:2 ~serial_cutoff:0. work xs)
  done;
  Alcotest.(check int) "no respawn across five sweeps" before
    (Sweep.pool_spawned ())

(* Regression for the exit-hook installation race: first submissions from
   several fresh domains race to install the pool's at_exit hook (an Atomic
   compare-and-set — exactly one may win), and every racing sweep must
   still return the serial result bit-for-bit. Callers that find the pool
   busy fall back to the serial loop, so the race is safe by construction;
   this pins it. *)
let test_first_submission_race () =
  ignore (Gnrflash_parallel.Pool.For_testing.quiesce ());
  let xs = Array.init 128 float_of_int in
  let expected = Array.map work xs in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> Sweep.map ~jobs:2 ~serial_cutoff:0. work xs))
  in
  List.iter
    (fun d ->
      check_true "racing sweep matches serial" (Domain.join d = expected))
    domains;
  check_true "pool still serviceable after the race"
    (Sweep.map ~jobs:2 ~serial_cutoff:0. work xs = expected)

let test_auto_chunk () =
  (* cheap elements: the chunk grows until one claim carries ~1 ms (the
     ceil of a float ratio, so allow the one-off rounding artifact) *)
  let c = Sweep.auto_chunk ~per_element_s:1e-6 ~n:100_000 ~jobs:2 in
  check_true "1 us elements -> ~1000-element chunks" (c >= 1000 && c <= 1001);
  (* expensive elements: floor at single-element chunks *)
  Alcotest.(check int) "expensive elements -> chunk 1" 1
    (Sweep.auto_chunk ~per_element_s:0.5 ~n:100 ~jobs:2);
  (* small sweeps: capped so ~2 chunks per domain remain to balance *)
  Alcotest.(check int) "balance cap at n=100 jobs=2" 25
    (Sweep.auto_chunk ~per_element_s:1e-6 ~n:100 ~jobs:2);
  check_true "never below 1"
    (Sweep.auto_chunk ~per_element_s:1. ~n:1 ~jobs:8 >= 1)

(* Regression guard for the pathology the heuristic removes: on a tiny cheap
   grid, a jobs>1 call must not be dramatically slower than the serial path.
   Wall-clock bounds flake under load, so take the best of several repeats
   and require parallel(min) <= 1.2 * serial(min) + 1ms slack; without the
   heuristic the pool spawn/join overhead fails this by an order of
   magnitude. *)
let test_tiny_grid_not_slower () =
  let outer = Array.init 4 (fun i -> float_of_int i)
  and inner = Array.init 4 (fun j -> float_of_int j /. 2.) in
  let time_min f =
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to 20 do ignore (f ()) done;
      best := min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let t_serial =
    time_min (fun () -> Sweep.grid ~jobs:1 (fun a b -> work (a +. b)) ~outer ~inner)
  in
  let t_par =
    time_min (fun () -> Sweep.grid ~jobs:4 (fun a b -> work (a +. b)) ~outer ~inner)
  in
  check_true
    (Printf.sprintf "tiny grid: parallel %.3gs within 1.2x serial %.3gs" t_par
       t_serial)
    (t_par <= (1.2 *. t_serial) +. 1e-3)

let () =
  Alcotest.run "sweep"
    [
      ( "sweep",
        [
          case "identical across jobs and chunks" test_jobs_invariant;
          case "grid layout" test_grid_layout;
          case "empty and edge cases" test_empty_and_edges;
          case "validation" test_validation;
          case "exception propagates" test_exception_propagates;
          case "splitmix hashing" test_splitmix;
          case "splitmix known answers" test_splitmix_known_answers;
          case "splitmix allocates nothing" test_splitmix_allocates_nothing;
          case "default jobs" test_default_jobs;
          case "telemetry totals match serial" test_telemetry_totals_match_serial;
          case "telemetry context adopted" test_telemetry_context_prefix_adopted;
          case "auto-serial heuristic" test_auto_serial_heuristic;
          case "probe ignores first-call artifact"
            test_probe_ignores_first_call_artifact;
          case "pool persists across calls" test_pool_persists_across_calls;
          case "first submissions race safely" test_first_submission_race;
          case "auto-chunk sizing" test_auto_chunk;
          case "tiny grid not slower than serial" test_tiny_grid_not_slower;
          prop_map_parity;
          prop_mapi_parity;
        ] );
    ]
