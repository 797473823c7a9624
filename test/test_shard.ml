module Sweep = Gnrflash.Sweep
module Shard = Gnrflash.Shard
module Tel = Gnrflash_telemetry.Telemetry
module Err = Gnrflash_resilience.Solver_error
open Gnrflash_testing.Testing

let work x = (sin (x *. 1.7) *. exp (-.x *. x /. 50.)) +. (x /. 3.)

(* ---- bit-identity across the multi-process tier ---- *)

let prop_shards_identical =
  prop ~count:12 "init bit-identical across shards x jobs"
    QCheck2.Gen.(triple (int_range 2 40) (int_range 1 4) (int_range 1 2))
    (fun (n, shards, jobs) ->
       let serial = Array.init n (fun i -> work (float_of_int i)) in
       Sweep.init ~shards ~jobs n (fun i -> work (float_of_int i)) = serial)

(* Variation ensembles are the production workload: float-heavy samples
   with possible [infinity]/[nan] fields and typed failures. Compare per
   field at the Int64 bit level — [nan = nan] is false, and Marshal bytes
   of a recombined array differ from serial because cross-slice string
   sharing is lost in transit, so neither (=) nor byte comparison is the
   right oracle. *)
let sample_bits_equal (a : Gnrflash_device.Variation.sample)
    (b : Gnrflash_device.Variation.sample) =
  let module V = Gnrflash_device.Variation in
  let fb = Int64.bits_of_float in
  fb a.V.xto = fb b.V.xto
  && fb a.V.phi_b_ev = fb b.V.phi_b_ev
  && fb a.V.gcr = fb b.V.gcr
  && fb a.V.program_time = fb b.V.program_time
  && fb a.V.dvt_fixed_pulse = fb b.V.dvt_fixed_pulse
  && a.V.solve_failed = b.V.solve_failed
  && Option.map Err.to_string a.V.failure = Option.map Err.to_string b.V.failure

let ensembles_bits_equal a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i s -> if not (sample_bits_equal s b.(i)) then ok := false) a;
  !ok

let prop_variation_ensemble_identical =
  prop ~count:3 "variation ensemble bit-identical across shards x jobs"
    QCheck2.Gen.(pair (int_range 4 10) (int_range 0 1000))
    (fun (n, seed) ->
       let module V = Gnrflash_device.Variation in
       let base = Gnrflash.Params.device () in
       let serial = V.sample_devices ~seed ~base ~n () in
       List.for_all
         (fun (shards, jobs) ->
            ensembles_bits_equal serial
              (V.sample_devices ~seed ~jobs ~shards ~base ~n ()))
         [ (1, 2); (2, 1); (2, 2); (4, 1) ])

let test_slice_boundaries () =
  (* indices must be global across slices, including when shards does not
     divide n: the balanced split gives the first [n mod k] slices one
     extra element *)
  List.iter
    (fun (n, shards) ->
       let out = Sweep.init ~shards n (fun i -> i * i) in
       check_true
         (Printf.sprintf "n=%d shards=%d" n shards)
         (out = Array.init n (fun i -> i * i)))
    [ (5, 2); (7, 3); (8, 4); (3, 4); (2, 2); (1, 4); (40, 16) ]

(* ---- worker-side introspection ---- *)

let test_worker_index () =
  check_true "parent is not a worker" (not (Shard.For_testing.in_worker ()));
  let who = Sweep.init ~shards:2 6 (fun _ -> Shard.For_testing.worker_index ()) in
  (* slice 0 (elements 0..2) runs in the parent, slice 1 (3..5) in the
     forked worker *)
  Array.iteri
    (fun i w ->
       check_true
         (Printf.sprintf "element %d attribution" i)
         (w = if i < 3 then None else Some 1))
    who;
  check_true "parent flag restored" (not (Shard.For_testing.in_worker ()))

(* ---- telemetry crosses the process boundary ---- *)

let test_shard_telemetry_parity () =
  Tel.reset ();
  Tel.enable ();
  Fun.protect ~finally:(fun () -> Tel.disable (); Tel.reset ()) @@ fun () ->
  Tel.span "outer_shard" (fun () ->
      ignore
        (Sweep.init ~shards:3 10 (fun i ->
             Tel.count "hit";
             i)));
  (* worker snapshots ship home in the result frame and merge additively,
     keyed under the submitting context, exactly like an unsharded run *)
  Alcotest.(check int) "prefixed counter total" 10
    (Tel.For_testing.counter "outer_shard/hit");
  Alcotest.(check int) "bare key unused" 0 (Tel.For_testing.counter "hit")

(* ---- a dead worker is a typed error, not a hang ---- *)

let test_killed_worker_is_typed_error () =
  match
    Sweep.init ~shards:2 8 (fun i ->
        (* every forked worker dies before writing its result frame; the
           parent's own slice is unaffected *)
        if Shard.For_testing.in_worker () then Unix._exit 7;
        i)
  with
  | _ -> Alcotest.fail "sweep with a dead worker returned"
  | exception Err.Solver_failure e ->
    Alcotest.(check string) "typed kind" "worker_failed" (Err.label e);
    (match e.Err.kind with
     | Err.Worker_failed { shard; detail } ->
       Alcotest.(check int) "failing shard" 1 shard;
       check_true "wait status in detail"
         (String.length detail > 0
          &&
          let has_sub hay needle =
            let nh = String.length hay and nn = String.length needle in
            let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
            go 0
          in
          has_sub detail "exited with code 7")
     | _ -> Alcotest.fail "expected Worker_failed kind")

(* A Solver_failure raised inside a worker crosses the pipe intact. *)
let test_solver_error_crosses_frame () =
  match
    Sweep.init ~shards:2 8 (fun i ->
        if Shard.For_testing.in_worker () then
          Err.fail ~solver:"TestSolver" (Err.Invalid_input "from worker");
        i)
  with
  | _ -> Alcotest.fail "sweep with a failing worker returned"
  | exception Err.Solver_failure e ->
    Alcotest.(check string) "solver preserved" "TestSolver" e.Err.solver;
    Alcotest.(check string) "kind preserved" "invalid_input" (Err.label e)

let () =
  Alcotest.run "shard"
    [
      ( "shard",
        [
          case "slice boundaries" test_slice_boundaries;
          case "worker index" test_worker_index;
          case "telemetry parity" test_shard_telemetry_parity;
          case "killed worker is a typed error" test_killed_worker_is_typed_error;
          case "solver error crosses the frame" test_solver_error_crosses_frame;
          prop_shards_identical;
          prop_variation_ensemble_identical;
        ] );
    ]
