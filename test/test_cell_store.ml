(* Side-by-side contract of the SoA cell store against the seed
   record-based path: the same pulse sequence driven through
   [Cell_store] (flat columns + per-pulse memo) and through boxed
   [Cell.t] values must leave Int64-bit-identical charges and wear, and
   equal digests. Each run owns one cold pulse engine (the store's, or
   one shared by the boxed cells), so both paths see the same consult
   history from a cold start. *)

module S = Gnrflash_memory.Cell_store
module Cell = Gnrflash_memory.Cell
module W = Gnrflash_memory.Workload
module F = Gnrflash_device.Fgt
module PE = Gnrflash_device.Program_erase
module Rel = Gnrflash_device.Reliability
open Gnrflash_testing.Testing

let fresh_device () =
  F.make ~gcr:0.6 ~xto:5e-9 ~xco:10e-9 ~area:(32e-9 *. 32e-9) ()

let bits = Int64.bits_of_float
let same_f a b = Int64.equal (bits a) (bits b)

(* in-box pulses (surrogate-served once promoted)... *)
let prog_pulse = PE.default_program_pulse
let erase_pulse = PE.default_erase_pulse

(* ...and out-of-box ones (duration below the paper box's 1 ns floor):
   always exact, memoized via the Program_erase.memoizable admission rule. *)
let prog_short = { PE.vgs = 15.; duration = 0.5e-9 }
let erase_short = { PE.vgs = -15.; duration = 0.5e-9 }

type op = Prog of int | Erase of int | Erange of int * int

(* ---------- the two implementations under comparison ---------- *)

let run_store ~pp ~ep ~n ops =
  let s = S.create ~n (fresh_device ()) in
  let pm = S.memo () and em = S.memo () in
  let errs = ref [] in
  let note = function Ok () -> () | Error e -> errs := e :: !errs in
  List.iter
    (fun op ->
      match op with
      | Prog i -> note (S.apply_pulse_at s ~memo:pm ~pulse:pp i)
      | Erase i -> note (S.apply_pulse_at s ~memo:em ~pulse:ep i)
      | Erange (lo, hi) ->
          note (S.apply_pulse_range s ~memo:em ~pulse:ep ~lo ~hi))
    ops;
  (s, List.rev !errs)

(* The record-based reference: boxed cells through Cell.program/erase,
   a range op as the seed's ascending per-cell loop stopping at the
   first error. *)
let run_record ~pp ~ep ~n ops =
  (* one shared device record and engine, like the store *)
  let device = fresh_device () in
  let engine = PE.engine device in
  let cells = Array.init n (fun _ -> Cell.make device) in
  let errs = ref [] in
  let prog i =
    match Cell.program ~pulse:pp engine cells.(i) with
    | Ok c ->
        cells.(i) <- c;
        true
    | Error e ->
        errs := e :: !errs;
        false
  in
  let erase i =
    match Cell.erase ~pulse:ep engine cells.(i) with
    | Ok c ->
        cells.(i) <- c;
        true
    | Error e ->
        errs := e :: !errs;
        false
  in
  List.iter
    (fun op ->
      match op with
      | Prog i -> ignore (prog i)
      | Erase i -> ignore (erase i)
      | Erange (lo, hi) ->
          let i = ref lo in
          let ok = ref true in
          while !ok && !i <= hi do
            ok := erase !i;
            incr i
          done)
    ops;
  (cells, List.rev !errs)

let fbits x = Int64.to_int (Int64.bits_of_float x)

let record_digest cells =
  Array.fold_left
    (fun h (c : Cell.t) ->
      let w = c.Cell.wear in
      let h = W.digest_fold h (fbits c.Cell.qfg) in
      let h = W.digest_fold h (fbits w.Rel.fluence) in
      let h = W.digest_fold h (fbits w.Rel.traps) in
      let h = W.digest_fold h w.Rel.cycles in
      W.digest_fold h (if w.Rel.broken then 1 else 0))
    W.digest_empty cells

let store_matches_records s cells =
  let n = S.length s in
  Array.length cells = n
  && Array.for_all Fun.id
       (Array.init n (fun i ->
            let (c : Cell.t) = cells.(i) in
            let w = c.Cell.wear in
            same_f (S.qfg s i) c.Cell.qfg
            && same_f (S.fluence s i) w.Rel.fluence
            && same_f (S.traps s i) w.Rel.traps
            && S.cycles s i = w.Rel.cycles
            && S.broken s i = w.Rel.broken))

(* ---------- generators ---------- *)

let gen_ops =
  QCheck2.Gen.(
    int_range 2 5 >>= fun n ->
    let gen_op =
      frequency
        [
          (4, map (fun i -> Prog i) (int_range 0 (n - 1)));
          (3, map (fun i -> Erase i) (int_range 0 (n - 1)));
          ( 2,
            map2
              (fun a b -> Erange (min a b, max a b))
              (int_range 0 (n - 1))
              (int_range 0 (n - 1)) );
        ]
    in
    list_size (int_range 1 24) gen_op >>= fun ops -> return (n, ops))

let side_by_side ~pp ~ep (n, ops) =
  let s, store_errs = run_store ~pp ~ep ~n ops in
  let cells, record_errs = run_record ~pp ~ep ~n ops in
  store_matches_records s cells
  && store_errs = record_errs
  && S.fold_digest s W.digest_fold W.digest_empty = record_digest cells

let prop_side_by_side_inbox =
  prop "SoA = record path, bit for bit (surrogate in-box)" ~count:8 gen_ops
    (side_by_side ~pp:prog_pulse ~ep:erase_pulse)

let prop_side_by_side_exact =
  prop "SoA = record path, bit for bit (out-of-box exact)" ~count:8 gen_ops
    (side_by_side ~pp:prog_short ~ep:erase_short)

(* ---------- unit tests ---------- *)

let test_create_rejects_empty () =
  Alcotest.check_raises "n < 1"
    (Invalid_argument "Cell_store.create: n < 1") (fun () ->
      ignore (S.create ~n:0 (fresh_device ())))

let test_view_set_roundtrip () =
  let d = fresh_device () in
  let s = S.create ~n:3 d in
  let c =
    {
      Cell.device = d;
      qfg = -3.25e-16;
      wear = { Rel.fluence = 1.5; traps = 2.5e11; cycles = 7; broken = false };
    }
  in
  S.set s 1 c;
  let v = S.view s 1 in
  check_true "qfg bits" (same_f v.Cell.qfg c.Cell.qfg);
  check_true "fluence bits" (same_f v.Cell.wear.Rel.fluence 1.5);
  check_true "traps bits" (same_f v.Cell.wear.Rel.traps 2.5e11);
  Alcotest.(check int) "cycles" 7 v.Cell.wear.Rel.cycles;
  check_false "not broken" v.Cell.wear.Rel.broken;
  (* untouched neighbours stay fresh *)
  check_true "slot 0 untouched" (same_f (S.qfg s 0) 0.);
  Alcotest.(check int) "slot 2 untouched" 0 (S.cycles s 2)

let test_scalar_readout_matches_cell () =
  let d = fresh_device () in
  let s = S.create ~n:4 d in
  let charges = [| 0.; -2e-16; -6.5e-16; 1e-17 |] in
  Array.iteri (fun i q -> S.set_qfg s i q) charges;
  for i = 0 to 3 do
    let v = S.view s i in
    check_true "dvt bits" (same_f (S.dvt s i) (Cell.dvt v));
    Alcotest.(check int) "bit"
      (Cell.to_bit (Cell.state v))
      (S.bit s i)
  done

let test_range_equals_per_cell_loop () =
  (* each store starts with a cold engine, so the exact/surrogate
     consult history is identical *)
  let charges = [| 0.; -1e-16; -3e-16; -1e-16; -4.5e-16 |] in
  let run_range () =
    let s = S.create ~n:5 (fresh_device ()) in
    Array.iteri (fun i q -> S.set_qfg s i q) charges;
    let m = S.memo () in
    check_ok "range"
      (S.apply_pulse_range s ~memo:m ~pulse:erase_pulse ~lo:0
         ~hi:4);
    s
  in
  let run_loop () =
    let s = S.create ~n:5 (fresh_device ()) in
    Array.iteri (fun i q -> S.set_qfg s i q) charges;
    let m = S.memo () in
    for i = 0 to 4 do
      check_ok "at"
        (S.apply_pulse_at s ~memo:m ~pulse:erase_pulse i)
    done;
    s
  in
  let a = run_range () and b = run_loop () in
  for i = 0 to 4 do
    check_true "qfg" (same_f (S.qfg a i) (S.qfg b i));
    check_true "fluence" (same_f (S.fluence a i) (S.fluence b i));
    check_true "traps" (same_f (S.traps a i) (S.traps b i));
    Alcotest.(check int) "cycles" (S.cycles b i) (S.cycles a i)
  done;
  check_true "digest"
    (S.fold_digest a W.digest_fold W.digest_empty
    = S.fold_digest b W.digest_fold W.digest_empty)

let test_range_stops_at_broken () =
  let d = fresh_device () in
  let s = S.create ~n:5 d in
  S.set s 2
    {
      Cell.device = d;
      qfg = 0.;
      wear = { Rel.fluence = 0.; traps = 0.; cycles = 0; broken = true };
    };
  let m = S.memo () in
  (match
     S.apply_pulse_range s ~memo:m ~pulse:erase_short ~lo:0
       ~hi:4
   with
  | Ok () -> Alcotest.fail "range over a broken cell must fail"
  | Error e -> Alcotest.(check string) "broken error" "Cell: oxide broken" e);
  (* cells before the break kept their pulse, cells at/after are untouched *)
  Alcotest.(check int) "cell 0 pulsed" 1 (S.cycles s 0);
  Alcotest.(check int) "cell 1 pulsed" 1 (S.cycles s 1);
  Alcotest.(check int) "cell 2 untouched" 0 (S.cycles s 2);
  Alcotest.(check int) "cell 3 untouched" 0 (S.cycles s 3);
  Alcotest.(check int) "cell 4 untouched" 0 (S.cycles s 4);
  check_true "cell 3 charge unchanged" (same_f (S.qfg s 3) 0.)

let test_memo_replays_distinct_charges () =
  (* two cells at the same charge, one at a different charge: the memo
     must key per charge, and the replay must match the first solve *)
  let s = S.create ~n:3 (fresh_device ()) in
  S.set_qfg s 0 (-2e-16);
  S.set_qfg s 1 (-2e-16);
  S.set_qfg s 2 (-5e-16);
  let m = S.memo () in
  for i = 0 to 2 do
    check_ok "pulse"
      (S.apply_pulse_at s ~memo:m ~pulse:erase_short i)
  done;
  check_true "same start, same end" (same_f (S.qfg s 0) (S.qfg s 1));
  check_true "same start, same wear" (same_f (S.fluence s 0) (S.fluence s 1));
  check_true "distinct start, distinct end" (not (same_f (S.qfg s 0) (S.qfg s 2)))

let () =
  Alcotest.run "cell_store"
    [
      ( "cell_store",
        [
          case "create rejects n < 1" test_create_rejects_empty;
          case "view/set round-trip" test_view_set_roundtrip;
          case "dvt/bit match Cell" test_scalar_readout_matches_cell;
          case "range = per-cell loop" test_range_equals_per_cell_loop;
          case "range stops at broken cell" test_range_stops_at_broken;
          case "memo keys per distinct charge" test_memo_replays_distinct_charges;
          prop_side_by_side_inbox;
          prop_side_by_side_exact;
        ] );
    ]
