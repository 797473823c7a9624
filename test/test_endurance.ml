module E = Gnrflash_memory.Endurance
module F = Gnrflash_device.Fgt
module Pe = Gnrflash_device.Program_erase
module Rel = Gnrflash_device.Reliability
module S = Gnrflash_memory.Cell_store
module Cell = Gnrflash_memory.Cell
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

(* The closed form against the simulation it summarises. With Q_BD a
   tenth of the default, the paper cell cycled by the default 1 ms, +-15 V
   pulses breaks its oxide after several hundred cycles, with its 13 V
   window still open. The closed form charges each pulse the swing
   between the two saturation charges, as the simulation does, and makes
   one approximation, which maps to a factor the test computes:
   - field: it reads Q_BD at the tunnel field of an uncharged gate, while
     a pulse is charged at the field of its midpoint charge.
   It does not cover pulses that stop short of saturation or a breakdown
   that lands at pulse granularity: 1% and one cycle. *)
let test_predicted_vs_breakdown () =
  let reliability = { Rel.default with Rel.qbd0 = Rel.default.Rel.qbd0 *. 0.1 } in
  let vgs = 15. in
  let r = E.cycle_cell ~reliability t ~cycles:100_000 in
  Alcotest.(check (option string)) "oxide breaks" (Some "Cell: oxide broken") r.E.failure;
  let sat v =
    check_sok "saturation charge" (Gnrflash_device.Transient.saturation_charge t ~vgs:v)
  in
  let q_prog = sat vgs and q_erase = sat (-.vgs) in
  let qbd_at v q = Rel.qbd reliability ~field:(abs_float (F.tunnel_field t ~vgs:v ~qfg:q)) in
  let q_mid = 0.5 *. (q_prog +. q_erase) in
  let field v = qbd_at v q_mid /. qbd_at vgs 0. in
  let expected = E.predicted_endurance ~reliability t ~vgs in
  let lo = expected *. Float.min (field vgs) (field (-.vgs))
  and hi = expected *. Float.max (field vgs) (field (-.vgs)) in
  check_in "cycles to breakdown" ~lo:((0.99 *. lo) -. 1.) ~hi:((1.01 *. hi) +. 1.)
    (float_of_int r.E.cycles_survived)

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

(* The cycle loop as it stood before [Cell_store.pe_cycle]: one pulse at a
   time through the store's per-cell step, and each threshold read as
   [Cell.For_testing.effective_vt] of a boxed [Cell_store.view]. It is the
   oracle [cycle_cell] must match bit for bit. *)
let reference ~reliability ~program_pulse ~erase_pulse ~window_min ~surrogate device
    ~cycles =
  let checkpoints =
    let rec go acc decade =
      if decade > cycles then List.rev acc
      else
        go
          (List.rev_append
             (List.filter (fun x -> x <= cycles)
                [ decade; 2 * decade; 3 * decade; 5 * decade ])
             acc)
          (decade * 10)
    in
    List.sort_uniq compare (go [] 1 @ [ cycles ])
  in
  let store = S.create ~surrogate ~n:1 device in
  let pmemo = S.memo store and ememo = S.memo store in
  let vt () = Cell.For_testing.effective_vt ~reliability (S.view store 0) in
  let samples = ref [] and failure = ref None and survived = ref 0 in
  (try
     for i = 1 to cycles do
       let pulse memo p =
         match S.For_testing.apply_pulse_at ~reliability store ~memo ~pulse:p 0 with
         | Error e -> failure := Some e; raise Exit
         | Ok () -> ()
       in
       pulse pmemo program_pulse;
       let vt_prog = vt () in
       pulse ememo erase_pulse;
       let vt_er = vt () in
       survived := i;
       let window = vt_prog -. vt_er in
       if List.mem i checkpoints then
         samples :=
           { E.cycle = i; vt_programmed = vt_prog; vt_erased = vt_er; window;
             fluence = S.fluence store 0 }
           :: !samples;
       if window < window_min then begin
         failure := Some "window closed";
         raise Exit
       end
     done
   with Exit -> ());
  { E.samples = List.rev !samples; cycles_survived = !survived; failure = !failure }

let same_run (a : E.run) (b : E.run) =
  List.map sample_bits a.E.samples = List.map sample_bits b.E.samples
  && a.E.cycles_survived = b.E.cycles_survived
  && a.E.failure = b.E.failure

(* A breakdown fluence a thousand times below the default: the oxide of a
   cell cycled at the paper's biases breaks within tens of cycles. *)
let fragile = { Rel.default with Rel.qbd0 = Rel.default.Rel.qbd0 *. 1e-3 }

let prop_cycle_matches_reference =
  let open QCheck2.Gen in
  let pulse sign =
    map2
      (fun v e -> { Pe.vgs = sign *. v; duration = 10. ** e })
      (float_range 12. 17.) (float_range (-6.) (-3.))
  in
  let gen =
    tup4
      (tup3 (int_range 0 1000) (pulse 1.) (pulse (-1.)))
      (int_range 1 3000)
      (tup2 bool (oneofl [ Rel.default; fragile ]))
      (oneof [ return 1.; float_range 0. 12. ])
  in
  prop "cycle_cell = record-path loop, bit for bit" ~count:60 gen
    (fun ((index, program_pulse, erase_pulse), cycles, (surrogate, reliability), window_min) ->
       let device =
         Gnrflash_device.Variation.perturbed ~seed:2014 ~index ~base:(Gnrflash.Params.device ()) ()
       in
       same_run
         (E.cycle_cell ~reliability ~program_pulse ~erase_pulse ~window_min ~surrogate device
            ~cycles)
         (reference ~reliability ~program_pulse ~erase_pulse ~window_min ~surrogate device
            ~cycles))

(* The property's generator reaches every ending: a full budget, a
   closed window and a broken oxide. *)
let test_reference_endings () =
  let pulse v = { Pe.vgs = v; duration = 100e-6 } in
  let run ?(reliability = Rel.default) ?(window_min = 1.) cycles =
    let r =
      E.cycle_cell ~reliability ~program_pulse:(pulse 15.) ~erase_pulse:(pulse (-15.))
        ~window_min t ~cycles
    in
    let o =
      reference ~reliability ~program_pulse:(pulse 15.) ~erase_pulse:(pulse (-15.))
        ~window_min ~surrogate:true t ~cycles
    in
    check_true "matches the record path" (same_run r o);
    r.E.failure
  in
  Alcotest.(check (option string)) "budget" None (run 500);
  Alcotest.(check (option string)) "window" (Some "window closed") (run ~window_min:20. 500);
  Alcotest.(check (option string)) "oxide" (Some "Cell: oxide broken")
    (run ~reliability:fragile 500)

(* Allocation pin (native code only). Two runs from cold stores on the
   same device and pulses, with budgets past the settling point and the
   same number of checkpoints, do the same solves and build the same
   samples; the longer one's extra 400 cycles all replay from the memos
   inside [Cell_store.pe_cycle], and must allocate nothing. *)
let test_warm_cycle_allocation () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let words cycles =
    ignore (run_cycles cycles);
    let before = Gc.minor_words () in
    let r = run_cycles cycles in
    let w = Gc.minor_words () -. before in
    Alcotest.(check int) "full budget" cycles r.E.cycles_survived;
    (w, List.length r.E.samples)
  in
  let w1, n1 = words 2500 and w2, n2 = words 2900 in
  Alcotest.(check int) "same checkpoints" n1 n2;
  check_true
    (Printf.sprintf "%.0f extra minor words over 400 warm cycles" (w2 -. w1))
    (w2 -. w1 <= 0.)

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
          case "predicted endurance vs simulated breakdown" test_predicted_vs_breakdown;
          prop_cycle_matches_reference;
          case "oracle reaches every ending" test_reference_endings;
          case "warm cycles allocate nothing" test_warm_cycle_allocation;
        ] );
    ]
