module E = Gnrflash_memory.Endurance
module F = Gnrflash_device.Fgt
module Pe = Gnrflash_device.Program_erase
open Gnrflash_testing.Testing

let t = F.paper_default
let short_pulse v = { Pe.vgs = v; duration = 10e-6 }

let run_cycles n =
  E.cycle_cell ~program_pulse:(short_pulse 15.) ~erase_pulse:(short_pulse (-15.)) t
    ~cycles:n

let test_survives_modest_cycling () =
  let r = run_cycles 100 in
  Alcotest.(check int) "all cycles done" 100 r.E.cycles_survived;
  check_true "no failure" (r.E.failure = None)

let test_window_positive_and_stable () =
  let r = run_cycles 50 in
  List.iter
    (fun s ->
       check_true "window open" (s.E.window > 1.);
       check_true "programmed above erased" (s.E.vt_programmed > s.E.vt_erased))
    r.E.samples

let test_samples_log_spaced () =
  let r = run_cycles 100 in
  let cycles = List.map (fun s -> s.E.cycle) r.E.samples in
  check_true "includes 1" (List.mem 1 cycles);
  check_true "includes 10" (List.mem 10 cycles);
  check_true "includes 100" (List.mem 100 cycles);
  (* strictly increasing *)
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  check_true "ordered" (increasing cycles)

let test_fluence_grows_with_cycles () =
  let r = run_cycles 100 in
  let fluences = List.map (fun s -> s.E.fluence) r.E.samples in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-12 && nondecreasing rest
    | _ -> true
  in
  check_true "fluence accumulates" (nondecreasing fluences);
  check_true "positive" (List.for_all (fun f -> f > 0.) fluences)

let test_vt_drift_with_cycling () =
  (* trap-induced drift raises both levels over cycling *)
  let r = run_cycles 1000 in
  match r.E.samples with
  | first :: rest when rest <> [] ->
    let last = List.nth rest (List.length rest - 1) in
    check_true "erased VT drifts up" (last.E.vt_erased >= first.E.vt_erased -. 1e-9)
  | _ -> Alcotest.fail "need at least two samples"

let test_cycle_validation () =
  Alcotest.check_raises "cycles" (Invalid_argument "Endurance.cycle_cell: cycles < 1")
    (fun () -> ignore (E.cycle_cell t ~cycles:0))

let test_predicted_endurance () =
  let n = E.predicted_endurance t ~vgs:15. in
  check_true "finite prediction" (Float.is_finite n && n > 0.);
  (* lower programming voltage stresses less: longer life *)
  let n_low = E.predicted_endurance t ~vgs:13. in
  check_true "field acceleration" (n_low > n)

(* Two runs on the same device record in one domain must agree to the bit:
   each run owns its pulse engine, so nothing carries over from the first
   run into the second. Ext D's curve is the same run behind
   Params.device (), the shared paper record. Registered as the suite's
   first case, so the first run starts in a domain where no pulse has
   been solved yet. *)
let sample_bits (s : E.cycle_sample) =
  List.map Int64.bits_of_float
    [ float_of_int s.E.cycle; s.E.vt_programmed; s.E.vt_erased; s.E.window; s.E.fluence ]

let test_repeatable_on_one_record () =
  let device = Gnrflash.Params.device () in
  let pulse v = { Pe.vgs = v; duration = 100e-6 } in
  let run () =
    E.cycle_cell ~program_pulse:(pulse 15.) ~erase_pulse:(pulse (-15.)) device
      ~cycles:10_000
  in
  let a = run () in
  let b = run () in
  Alcotest.(check (list (list int64))) "samples"
    (List.map sample_bits a.E.samples) (List.map sample_bits b.E.samples);
  Alcotest.(check int) "cycles survived" a.E.cycles_survived b.E.cycles_survived;
  let curve () =
    let fig, survived = Gnrflash.Extensions.endurance_curve () in
    ( survived,
      List.map
        (fun (s : Gnrflash_plot.Series.t) ->
           Array.to_list
             (Array.map
                (fun (x, y) -> (Int64.bits_of_float x, Int64.bits_of_float y))
                s.Gnrflash_plot.Series.points))
        fig.Gnrflash_plot.Figure.series )
  in
  let survived1, pts1 = curve () in
  let survived2, pts2 = curve () in
  Alcotest.(check int) "Ext D cycles survived" survived1 survived2;
  Alcotest.(check (list (list (pair int64 int64)))) "Ext D points" pts1 pts2;
  Alcotest.(check int) "Ext D is the same run" a.E.cycles_survived survived1

let () =
  Alcotest.run "endurance"
    [
      ( "endurance",
        [
          (* first: it must see a domain no other pulse work has touched *)
          case "repeatable on one record" test_repeatable_on_one_record;
          case "survives modest cycling" test_survives_modest_cycling;
          case "window positive" test_window_positive_and_stable;
          case "log-spaced checkpoints" test_samples_log_spaced;
          case "fluence accumulates" test_fluence_grows_with_cycles;
          case "VT drift" test_vt_drift_with_cycling;
          case "validation" test_cycle_validation;
          case "predicted endurance" test_predicted_endurance;
        ] );
    ]
