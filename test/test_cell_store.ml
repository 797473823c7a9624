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
module U = Gnrflash_units
module PE = Gnrflash_device.Program_erase
module Rel = Gnrflash_device.Reliability
module C = Gnrflash_memory.Command_fsm
module Budget = Gnrflash_resilience.Budget
module Tel = Gnrflash_telemetry.Telemetry
open Gnrflash_testing.Testing

let fresh_device () =
  F.make ~gcr:0.6 ~xto:(U.metre 5e-9) ~xco:(U.metre 10e-9)
    ~area:(U.square_metre (32e-9 *. 32e-9)) ()

let bits = Int64.bits_of_float
let same_f a b = Int64.equal (bits a) (bits b)

(* One cell's readout at 1 V *)
let bit s i = S.sense s ~base:i ~bits:1

(* in-box pulses (surrogate-served once promoted)... *)
let prog_pulse = PE.default_program_pulse
let erase_pulse = PE.default_erase_pulse

(* ...and out-of-box ones (duration below the paper box's 1 ns floor):
   always exact, memoized via the Program_erase.memoizable admission rule. *)
let prog_short = { PE.vgs = 15.; duration = 0.5e-9 }
let erase_short = { PE.vgs = -15.; duration = 0.5e-9 }

type op =
  | Prog of int (* one program pulse through apply_pulse_at *)
  | Erase of int (* one erase pulse through apply_pulse_at *)
  | Erange of int * int (* apply_pulse_range over lo..hi *)
  | Verify of int * int (* program-verify of a cell, up to max pulses *)
  | Round of int * int (* erase round over lo..hi, counting cells at 0 *)
  | Word of int * int * int * int
      (* word program: base, bits, data, max pulses per bit *)
  | Erased of int * int (* every cell of lo..hi reads 1 *)
  | Sense of int * int (* packed readout: base, bits *)
  | Reset (* every cell back to its starting charge, wear kept *)

type case = {
  charges : float array; (* starting charge per cell *)
  broken_at : int list;
  ops : op list;
  budget : int option; (* run the ops under a budget of this many evals *)
  inbox : bool; (* surrogate-served pulses, else out-of-box exact *)
}

let pulses c =
  if c.inbox then (prog_pulse, erase_pulse) else (prog_short, erase_short)

(* A starved case runs its ops under a fresh eval budget: solves fail
   once it is spent, replays (which spend no evals) still succeed. *)
let with_case_budget c go =
  match c.budget with
  | None -> go ()
  | Some max_evals -> Budget.with_budget (Budget.make ~max_evals ()) go

(* ---------- the implementations under comparison ---------- *)

(* Each op's outcome: [Ok] of its counts (pulses for [Verify], cells at
   0 for [Round], 1 when [Erased] holds, the packed word for [Sense], slowest bit,
   total pulses and timeout for [Word], 0 for the others) or its error.
   A failed [Word] also reports the pulses its earlier bits took. *)

let word_max_pulses = 8

let word_failed e total = Error (Printf.sprintf "%s (after %d pulses)" e total)

(* A budget error's message ends its eval count with the wall time the
   budget ran for ("... after N evals / 0.001 s"), which differs between
   two runs of the same work: outcomes are compared without it. *)
let untimed e =
  let key = " evals / " in
  let rec find sub i =
    if i + String.length sub > String.length e then None
    else if String.sub e i (String.length sub) = sub then Some i
    else find sub (i + 1)
  in
  match find key 0 with
  | None -> e
  | Some i ->
    (match find " s" (i + String.length key) with
     | None -> e
     | Some j ->
       String.sub e 0 (i + 6) ^ String.sub e (j + 2) (String.length e - j - 2))

let untimed_outcomes = List.map (Result.map_error untimed)

(* The per-cell [apply_pulse_at] + [bit] loops the fused kernels replace. *)
let loop_verify s m ~pulse ~max_pulses i =
  let p = ref 0 and err = ref None in
  while Option.is_none !err && bit s i = 1 && !p < max_pulses do
    match S.For_testing.apply_pulse_at s ~memo:m ~pulse i with
    | Ok () -> incr p
    | Error e -> err := Some e
  done;
  match !err with None -> Ok !p | Some e -> Error e

let loop_round s m ~pulse ~lo ~hi =
  let zeros = ref 0 and err = ref None and i = ref lo in
  while Option.is_none !err && !i <= hi do
    (match S.For_testing.apply_pulse_at s ~memo:m ~pulse !i with
     | Ok () -> if bit s !i = 0 then incr zeros
     | Error e -> err := Some e);
    incr i
  done;
  match !err with None -> Ok [ !zeros ] | Some e -> Error e

(* The word program as [Command_fsm] ran it before [S.program_word]:
   per target-0 bit, a verify loop; a failed pulse restores that bit's
   cell from a boxed snapshot and stops the word. *)
let loop_word s m ~pulse ~max_pulses ~base ~bits ~data =
  let rec go i slowest total timeout =
    if i >= bits then Ok [ slowest; total; Bool.to_int timeout ]
    else
      let idx = base + i in
      if (data lsr i) land 1 = 1 then
        go (i + 1) slowest total (timeout || bit s idx = 0)
      else
        let before = S.view s idx in
        match loop_verify s m ~pulse ~max_pulses idx with
        | Ok p ->
          go (i + 1) (max slowest p) (total + p) (timeout || bit s idx = 1)
        | Error e ->
          S.For_testing.set s idx before;
          word_failed e total
  in
  go 0 0 0 false

let loop_erased s ~lo ~hi =
  let z = ref 0 in
  for i = lo to hi do
    if bit s i = 0 then incr z
  done;
  [ Bool.to_int (!z = 0) ]

let loop_sense s ~base ~bits =
  let w = ref 0 in
  for i = 0 to bits - 1 do
    w := !w lor (bit s (base + i) lsl i)
  done;
  [ !w ]

(* The store, with [Verify]/[Round]/[Word]/[Erased]/[Sense] through the
   fused kernels or through the per-cell loops. *)
let run_store ~fused c =
  let d = fresh_device () in
  let n = Array.length c.charges in
  let s = S.create ~n d in
  Array.iteri (fun i q -> S.set_qfg s i q) c.charges;
  List.iter
    (fun i ->
      S.For_testing.set s i
        {
          Cell.device = d;
          qfg = c.charges.(i);
          wear = { Rel.fluence = 0.; traps = 0.; cycles = 0; broken = true };
        })
    c.broken_at;
  let pp, ep = pulses c in
  let pm = S.memo s and em = S.memo s in
  let reset () = Array.iteri (fun i q -> S.set_qfg s i q) c.charges in
  let zero r = Result.map (fun () -> [ 0 ]) r in
  let out = S.word_outcome () in
  let step = function
    | Prog i -> zero (S.For_testing.apply_pulse_at s ~memo:pm ~pulse:pp i)
    | Erase i -> zero (S.For_testing.apply_pulse_at s ~memo:em ~pulse:ep i)
    | Erange (lo, hi) -> zero (S.apply_pulse_range s ~memo:em ~pulse:ep ~lo ~hi)
    | Verify (i, max_pulses) when fused -> (
      match S.program_verify s ~memo:pm ~pulse:pp ~max_pulses i with
      | p -> Ok [ p ]
      | exception S.Pulse_error e -> Error e)
    | Verify (i, max_pulses) ->
      Result.map (fun p -> [ p ]) (loop_verify s pm ~pulse:pp ~max_pulses i)
    | Round (lo, hi) when fused -> (
      match S.erase_round s ~memo:em ~pulse:ep ~lo ~hi with
      | z -> Ok [ z ]
      | exception S.Pulse_error e -> Error e)
    | Round (lo, hi) -> loop_round s em ~pulse:ep ~lo ~hi
    | Word (base, bits, data, max_pulses) when fused ->
      (* the kernel starts from the word's readout and must leave the new
         one in [out.word], after a failed pulse too *)
      let sensed = S.sense s ~base ~bits in
      let r =
        match
          S.program_word s ~memo:pm ~pulse:pp ~max_pulses ~base
            ~bits ~sensed ~data out
        with
        | () -> Ok [ out.S.slowest; out.S.total; Bool.to_int out.S.timed_out ]
        | exception S.Pulse_error e -> word_failed e out.S.total
      in
      if out.S.word = S.sense s ~base ~bits then r
      else Error "out.word is not the word's readout"
    | Word (base, bits, data, max_pulses) ->
      loop_word s pm ~pulse:pp ~max_pulses ~base ~bits ~data
    | Erased (lo, hi) when fused -> Ok [ Bool.to_int (S.all_erased s ~lo ~hi) ]
    | Erased (lo, hi) -> Ok (loop_erased s ~lo ~hi)
    | Sense (base, bits) when fused -> Ok [ S.sense s ~base ~bits ]
    | Sense (base, bits) -> Ok (loop_sense s ~base ~bits)
    | Reset ->
      reset ();
      Ok [ 0 ]
  in
  (s, with_case_budget c (fun () -> List.map step c.ops))

(* The record-based reference: boxed cells through Cell.program/erase on
   one engine, no store and no memo; a range op is the seed's ascending
   per-cell loop stopping at the first error. Under a starved budget this
   is what tells a memo that replays a pulse from one that solves it
   again, since only a solve spends evals and so moves the failure. *)
let run_record c =
  let d = fresh_device () in
  let engine = PE.engine d in
  let cells =
    Array.mapi
      (fun i q ->
        let cell = Cell.make ~qfg:q d in
        if List.mem i c.broken_at then
          { cell with Cell.wear = { cell.Cell.wear with Rel.broken = true } }
        else cell)
      c.charges
  in
  let pp, ep = pulses c in
  let bit i = Cell.to_bit (Cell.For_testing.state cells.(i)) in
  let reset () =
    Array.iteri
      (fun i q -> cells.(i) <- { (cells.(i)) with Cell.qfg = q })
      c.charges
  in
  (* one pulse; [Some e] on failure, the cell unchanged *)
  let pulse f i =
    match f cells.(i) with
    | Ok cell ->
      cells.(i) <- cell;
      None
    | Error e -> Some e
  in
  let program = pulse (Cell.program ~pulse:pp engine)
  and erase = pulse (Cell.erase ~pulse:ep engine) in
  let outcome count err = Option.fold ~none:(Ok [ count ]) ~some:Result.error err in
  let verify i max_pulses =
    let p = ref 0 and err = ref None in
    while Option.is_none !err && bit i = 1 && !p < max_pulses do
      match program i with None -> incr p | e -> err := e
    done;
    (!p, !err)
  in
  let rec word base bits data max_pulses i slowest total timeout =
    if i >= bits then Ok [ slowest; total; Bool.to_int timeout ]
    else
      let idx = base + i in
      if (data lsr i) land 1 = 1 then
        word base bits data max_pulses (i + 1) slowest total (timeout || bit idx = 0)
      else
        let before = cells.(idx) in
        match verify idx max_pulses with
        | p, None ->
          word base bits data max_pulses (i + 1) (max slowest p) (total + p)
            (timeout || bit idx = 1)
        | _, Some e ->
          cells.(idx) <- before;
          word_failed e total
  in
  let round lo hi =
    let zeros = ref 0 and err = ref None and i = ref lo in
    while Option.is_none !err && !i <= hi do
      (match erase !i with
       | None -> if bit !i = 0 then incr zeros
       | e -> err := e);
      incr i
    done;
    (!zeros, !err)
  in
  let step = function
    | Prog i -> outcome 0 (program i)
    | Erase i -> outcome 0 (erase i)
    | Erange (lo, hi) -> outcome 0 (snd (round lo hi))
    | Verify (i, max_pulses) ->
      let p, err = verify i max_pulses in
      outcome p err
    | Round (lo, hi) ->
      let zeros, err = round lo hi in
      outcome zeros err
    | Word (base, bits, data, max_pulses) -> word base bits data max_pulses 0 0 0 false
    | Erased (lo, hi) ->
      let range = List.init (hi - lo + 1) (( + ) lo) in
      Ok [ Bool.to_int (List.for_all (fun i -> bit i = 1) range) ]
    | Sense (base, bits) ->
      Ok [ List.fold_left ( lor ) 0 (List.init bits (fun i -> bit (base + i) lsl i)) ]
    | Reset ->
      reset ();
      Ok [ 0 ]
  in
  (cells, with_case_budget c (fun () -> List.map step c.ops))

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
            && same_f (S.For_testing.traps s i) w.Rel.traps
            && S.cycles s i = w.Rel.cycles
            && S.broken s i = w.Rel.broken))

(* Fused store, per-cell-loop store and record path: same outcomes,
   Int64-bit-identical charge and wear, equal digests. *)
let all_agree c =
  let s, rs = run_store ~fused:true c in
  let _, rl = run_store ~fused:false c in
  let cells, rr = run_record c in
  let rs = untimed_outcomes rs in
  rs = untimed_outcomes rl && rs = untimed_outcomes rr
  && store_matches_records s cells
  && S.fold_digest s W.digest_fold W.digest_empty = record_digest cells

(* ---------- generators ---------- *)

(* single pulses and range erases from fresh cells *)
let gen_pulse_case ~inbox =
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
    list_size (int_range 1 24) gen_op >>= fun ops ->
    return
      { charges = Array.make n 0.; broken_at = []; ops; budget = None; inbox })

let prop_side_by_side_inbox =
  prop "SoA = record path, bit for bit (surrogate in-box)" ~count:8
    (gen_pulse_case ~inbox:true) all_agree

let prop_side_by_side_exact =
  prop "SoA = record path, bit for bit (out-of-box exact)" ~count:8
    (gen_pulse_case ~inbox:false) all_agree

(* A packed word holds at most [Sys.int_size - 1] cells. *)
let width lo hi = min (hi - lo + 1) (Sys.int_size - 1)

(* A word program over [lo..hi] whose data has bits set at and above the
   word's top bit too: the kernel must ignore them, as the loop does. *)
let gen_word range =
  QCheck2.Gen.map2
    (fun ((lo, hi), max_pulses) data -> Word (lo, width lo hi, data, max_pulses))
    (QCheck2.Gen.pair range (QCheck2.Gen.int_range 1 word_max_pulses))
    (QCheck2.Gen.int_bound (1 lsl 40))

(* Every op, with charges straddling the 1 V read level (about
   -3.54e-18 C on this device) so verify loops run 0..max pulses and
   rounds count both readouts; a few cells start broken. [word] draws the
   word programs over a range of the store's cells. *)
let gen_kernel_case ?(word = gen_word) ~cells () =
  QCheck2.Gen.(
    cells >>= fun n ->
    let cell = int_range 0 (n - 1) in
    let range = map2 (fun a b -> (min a b, max a b)) cell cell in
    let gen_op =
      frequency
        [
          (1, map (fun i -> Prog i) cell);
          (1, map (fun i -> Erase i) cell);
          (1, map (fun (lo, hi) -> Erange (lo, hi)) range);
          (4, map2 (fun i m -> Verify (i, m)) cell (int_range 1 8));
          (3, map (fun (lo, hi) -> Round (lo, hi)) range);
          (3, word range);
          (1, map (fun (lo, hi) -> Erased (lo, hi)) range);
          (2, map (fun (lo, hi) -> Sense (lo, width lo hi)) range);
          (2, return Reset);
        ]
    in
    array_size (return n) (map (fun k -> -1e-19 *. float_of_int k) (int_range 0 120))
    >>= fun charges ->
    list_size (int_range 0 2) cell >>= fun broken_at ->
    list_size (int_range 1 16) gen_op >>= fun ops ->
    bool >>= fun inbox -> return { charges; broken_at; ops; budget = None; inbox })

let prop_kernels =
  prop "fused kernels = per-cell loop" ~count:50
    (gen_kernel_case ~cells:(QCheck2.Gen.int_range 2 6) ())
    all_agree

(* Words of 33 to 62 bits on stores of 40 to 62 cells: the word kernel's
   bit scan reaches the high half of the word. *)
let gen_wide_word range =
  gen_word
    (QCheck2.Gen.map
       (fun (lo, hi) ->
         let hi = max hi 32 in
         (max 0 (min lo (hi - 32)), hi))
       range)

let prop_kernels_wide =
  prop "fused kernels = per-cell loop (words over 32 bits)" ~count:20
    (gen_kernel_case ~word:gen_wide_word ~cells:(QCheck2.Gen.int_range 40 62) ())
    all_agree

(* word programs from erased cells with short exact pulses (about 5 per
   bit) under a budget of 1 to 200 evals, which a word's ~170 runs out
   part-way, so words fail inside a bit's verify loop: the restore of
   that bit and the partial pulse total must match the loop's *)
let prop_word_starved =
  prop "fused kernels = per-cell loop (word program, starved budget)" ~count:10
    QCheck2.Gen.(
      int_range 4 8 >>= fun n ->
      let word =
        map2
          (fun base data -> Word (base, n - base, data, word_max_pulses))
          (int_range 0 (n - 1)) (int_bound 255)
      in
      list_size (int_range 2 8) (frequency [ (4, word); (1, return Reset) ])
      >>= fun ops ->
      int_range 1 200 >>= fun max_evals ->
      return
        {
          charges = Array.make n 0.;
          broken_at = [];
          ops;
          budget = Some max_evals;
          inbox = false;
        })
    all_agree

(* more distinct starting charges than the memo's 64 initial slots: two
   full sweeps, so the second replays entries the rehash carried and
   needs their verify bits *)
let prop_kernels_rehash =
  prop "fused kernels = per-cell loop (memo rehash)" ~count:5
    (gen_kernel_case ~cells:(QCheck2.Gen.int_range 70 90) ())
    (fun c ->
      let n = Array.length c.charges in
      let sweep = List.init n (fun i -> Verify (i, 8)) @ [ Round (0, n - 1) ] in
      all_agree { c with ops = sweep @ (Reset :: sweep) @ c.ops })

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
  S.For_testing.set s 1 c;
  let v = S.view s 1 in
  check_true "qfg bits" (same_f v.Cell.qfg c.Cell.qfg);
  check_true "fluence bits" (same_f v.Cell.wear.Rel.fluence 1.5);
  check_true "traps bits" (same_f v.Cell.wear.Rel.traps 2.5e11);
  Alcotest.(check int) "cycles" 7 v.Cell.wear.Rel.cycles;
  check_false "not broken" v.Cell.wear.Rel.broken;
  (* untouched neighbours stay fresh *)
  check_true "slot 0 untouched" (same_f (S.qfg s 0) 0.);
  Alcotest.(check int) "slot 2 untouched" 0 (S.cycles s 2);
  (* a pulse gives cell 1 a charge id; blit copies charge, id and wear *)
  check_ok "pulse" (S.For_testing.apply_pulse_at s ~memo:(S.memo s) ~pulse:prog_short 1);
  S.blit s ~src:1 ~dst:2 ~len:1;
  let v1 = S.view s 1 and v2 = S.view s 2 in
  check_true "blit qfg bits" (same_f v2.Cell.qfg v1.Cell.qfg);
  check_true "blit wear" (v2.Cell.wear = v1.Cell.wear);
  check_true "blit charge id"
    (S.For_testing.charge_id s 2 = S.For_testing.charge_id s 1
     && S.For_testing.charge_id s 2 <> 0);
  check_true "blit leaves slot 0" (same_f (S.qfg s 0) 0.)

let test_scalar_readout_matches_cell () =
  let d = fresh_device () in
  let s = S.create ~n:4 d in
  let charges = [| 0.; -2e-16; -6.5e-16; 1e-17 |] in
  Array.iteri (fun i q -> S.set_qfg s i q) charges;
  for i = 0 to 3 do
    let v = S.view s i in
    check_true "dvt bits" (same_f (S.dvt s i) (Cell.dvt v));
    Alcotest.(check int) "bit"
      (Cell.to_bit (Cell.For_testing.state v))
      (bit s i)
  done

let test_range_equals_per_cell_loop () =
  (* each store starts with a cold engine, so the exact/surrogate
     consult history is identical *)
  let charges = [| 0.; -1e-16; -3e-16; -1e-16; -4.5e-16 |] in
  let run_range () =
    let s = S.create ~n:5 (fresh_device ()) in
    Array.iteri (fun i q -> S.set_qfg s i q) charges;
    let m = S.memo s in
    check_ok "range"
      (S.apply_pulse_range s ~memo:m ~pulse:erase_pulse ~lo:0
         ~hi:4);
    s
  in
  let run_loop () =
    let s = S.create ~n:5 (fresh_device ()) in
    Array.iteri (fun i q -> S.set_qfg s i q) charges;
    let m = S.memo s in
    for i = 0 to 4 do
      check_ok "at"
        (S.For_testing.apply_pulse_at s ~memo:m ~pulse:erase_pulse i)
    done;
    s
  in
  let a = run_range () and b = run_loop () in
  for i = 0 to 4 do
    check_true "qfg" (same_f (S.qfg a i) (S.qfg b i));
    check_true "fluence" (same_f (S.fluence a i) (S.fluence b i));
    check_true "traps" (same_f (S.For_testing.traps a i) (S.For_testing.traps b i));
    Alcotest.(check int) "cycles" (S.cycles b i) (S.cycles a i)
  done;
  check_true "digest"
    (S.fold_digest a W.digest_fold W.digest_empty
    = S.fold_digest b W.digest_fold W.digest_empty)

let test_range_stops_at_broken () =
  let d = fresh_device () in
  let s = S.create ~n:5 d in
  S.For_testing.set s 2
    {
      Cell.device = d;
      qfg = 0.;
      wear = { Rel.fluence = 0.; traps = 0.; cycles = 0; broken = true };
    };
  let m = S.memo s in
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
  let m = S.memo s in
  for i = 0 to 2 do
    check_ok "pulse"
      (S.For_testing.apply_pulse_at s ~memo:m ~pulse:erase_short i)
  done;
  check_true "same start, same end" (same_f (S.qfg s 0) (S.qfg s 1));
  check_true "same start, same wear" (same_f (S.fluence s 0) (S.fluence s 1));
  check_true "distinct start, distinct end" (not (same_f (S.qfg s 0) (S.qfg s 2)))

(* ---------- charge ids ---------- *)

module T = S.For_testing

(* Every cell's id is its charge's (or 0, none yet), and the default
   readout — the id's bit when it has one — is the division. *)
let ids_consistent s =
  List.for_all
    (fun i ->
      let c = T.charge_id s i in
      (c = 0 || c = T.id_of_charge s (S.qfg s i))
      && bit s i = (if S.dvt s i > 1.0 then 0 else 1))
    (List.init (S.length s) Fun.id)

type id_op =
  | Pulse of int * bool (* apply_pulse_at, program (true) or erase pulse *)
  | Id_word of int * int * int (* program_word: base, bits, data *)
  | Id_round of int * int (* erase_round over lo..hi *)
  | Copy_q of int * int (* set_qfg i to cell j's charge *)
  | Copy_cell of int * int (* set i to view j *)
  | Worn of int (* set i's fluence past breakdown: its next pulse breaks it *)

let prop_ids_consistent =
  prop "charge ids match charges and readout" ~count:25
    QCheck2.Gen.(
      int_range 3 8 >>= fun n ->
      let cell = int_range 0 (n - 1) in
      let range = map2 (fun a b -> (min a b, max a b)) cell cell in
      let gen_op =
        frequency
          [
            (3, map2 (fun i p -> Pulse (i, p)) cell bool);
            (3, map2 (fun (lo, hi) data -> Id_word (lo, hi - lo + 1, data)) range (int_bound 255));
            (2, map (fun (lo, hi) -> Id_round (lo, hi)) range);
            (2, map2 (fun i j -> Copy_q (i, j)) cell cell);
            (1, map2 (fun i j -> Copy_cell (i, j)) cell cell);
            (1, map (fun i -> Worn i) cell);
          ]
      in
      pair bool (list_size (int_range 4 30) gen_op) >|= fun ops -> (n, ops))
    (fun (n, (inbox, ops)) ->
      let d = fresh_device () in
      let s = S.create ~n d in
      let pp, ep = if inbox then (prog_pulse, erase_pulse) else (prog_short, erase_short) in
      let pm = S.memo s and em = S.memo s in
      let out = S.word_outcome () in
      let attempt f = try f () with S.Pulse_error _ -> () in
      let step = function
        | Pulse (i, prog) ->
          ignore
            (S.For_testing.apply_pulse_at s ~memo:(if prog then pm else em)
               ~pulse:(if prog then pp else ep) i)
        | Id_word (base, bits, data) ->
          attempt (fun () ->
              S.program_word s ~memo:pm ~pulse:pp ~max_pulses:word_max_pulses ~base ~bits
                ~sensed:(S.sense s ~base ~bits) ~data out)
        | Id_round (lo, hi) ->
          attempt (fun () -> ignore (S.erase_round s ~memo:em ~pulse:ep ~lo ~hi))
        | Copy_q (i, j) -> S.set_qfg s i (S.qfg s j)
        | Copy_cell (i, j) -> S.For_testing.set s i (S.view s j)
        | Worn i ->
          let c = S.view s i in
          S.For_testing.set s i
            { c with Cell.wear = { c.Cell.wear with Rel.fluence = 1e30 } }
      in
      List.for_all
        (fun op ->
          step op;
          ids_consistent s)
        ops)

(* Ids compare charges by their full bits: q and -q, 0. and -0. are four
   charges, not two. *)
let test_ids_keep_sign () =
  let charges = [| 1e-17; -1e-17; 0.; -0. |] in
  let s = S.create ~n:4 (fresh_device ()) in
  Array.iteri (S.set_qfg s) charges;
  let m = S.memo s in
  Array.iteri (fun i _ -> check_ok "pulse" (S.For_testing.apply_pulse_at s ~memo:m ~pulse:prog_short i)) charges;
  let ids = Array.map (T.id_of_charge s) charges in
  Array.iter (fun c -> check_true "interned" (c > 0)) ids;
  Alcotest.(check int) "four distinct ids" 4
    (List.length (List.sort_uniq compare (Array.to_list ids)))

(* Ids are store-local, so a memo bound to one store is refused by
   every kernel of another. *)
let test_foreign_memo_rejected () =
  let d = fresh_device () in
  let a = S.create ~n:4 d and b = S.create ~n:4 d in
  let m = S.memo b in
  let refused name f =
    Alcotest.check_raises name
      (Invalid_argument "Cell_store: memo of another store") (fun () -> ignore (f ()))
  in
  refused "apply_pulse_at" (fun () -> S.For_testing.apply_pulse_at a ~memo:m ~pulse:prog_short 0);
  refused "program_verify" (fun () ->
      S.program_verify a ~memo:m ~pulse:prog_short ~max_pulses:4 0);
  refused "erase_round" (fun () -> S.erase_round a ~memo:m ~pulse:erase_short ~lo:0 ~hi:3);
  refused "apply_pulse_range" (fun () ->
      S.apply_pulse_range a ~memo:m ~pulse:erase_short ~lo:0 ~hi:3);
  refused "program_word" (fun () ->
      S.program_word a ~memo:m ~pulse:prog_short ~max_pulses:4 ~base:0 ~bits:4
        ~sensed:0b1111 ~data:0 (S.word_outcome ()));
  Alcotest.(check int) "nothing pulsed" 0 (S.cycles a 0)

(* The seed word program on a bare store: per target-0 bit, pulse while
   it reads 1; a failed pulse restores that bit's pre-program cell and
   stops the word. [Command_fsm.program_word_cells] must leave the same
   cells through the fused kernel. *)
let seed_program_word s m ~pulse ~max_pulses ~base ~bits ~data =
  let rec go i =
    if i >= bits then Ok ()
    else if (data lsr i) land 1 = 1 then go (i + 1)
    else begin
      let idx = base + i in
      let before = S.view s idx in
      match loop_verify s m ~pulse ~max_pulses idx with
      | Ok _ -> go (i + 1)
      | Error e ->
        S.For_testing.set s idx before;
        Error e
    end
  in
  go 0

(* short exact pulses take ~5 to program a cell, and a word from erased
   cells spends about 170 evals (5 solves, the rest replays), so a budget
   of 1 to 200 evals fails most words inside a bit's loop *)
let small_fsm =
  {
    C.default_config with
    C.sectors = 1;
    words_per_sector = 4;
    word_bits = 6;
    program_pulse = prog_short;
    max_pulses = 8;
  }

let prop_fsm_restores_on_error =
  prop "program_word_cells restores a failed bit" ~count:12
    QCheck2.Gen.(
      triple (int_range 1 200) (int_range 0 3) (int_range 0 ((1 lsl 6) - 2)))
    (fun (max_evals, addr, data) ->
      let cfg = small_fsm in
      let fsm = C.create ~config:cfg (fresh_device ()) in
      let bits = cfg.C.word_bits in
      let n = cfg.C.words_per_sector * bits in
      let s = S.create ~n (fresh_device ()) in
      let m = S.memo s in
      let starved f = Budget.with_budget (Budget.make ~max_evals ()) f in
      let fsm_err =
        starved (fun () ->
            let w a d = ignore (C.write fsm ~addr:a ~data:d) in
            w (0x555 mod C.words fsm) 0xAA;
            w (0x2AA mod C.words fsm) 0x55;
            w (0x555 mod C.words fsm) 0xA0;
            match C.write fsm ~addr ~data with
            | Ok () -> None
            | Error (C.Physics e) -> Some e
            | Error e -> Some (C.error_to_string e))
      in
      let ref_err =
        starved (fun () ->
            match
              seed_program_word s m ~pulse:cfg.C.program_pulse
                ~max_pulses:cfg.C.max_pulses ~base:(addr * bits) ~bits ~data
            with
            | Ok () -> None
            | Error e -> Some e)
      in
      Option.map untimed fsm_err = Option.map untimed ref_err
      && Array.for_all Fun.id
           (Array.init n (fun i ->
                let (c : Cell.t) = C.For_testing.cell fsm ~idx:i in
                let w = c.Cell.wear in
                same_f c.Cell.qfg (S.qfg s i)
                && same_f w.Rel.fluence (S.fluence s i)
                && same_f w.Rel.traps (S.For_testing.traps s i)
                && w.Rel.cycles = S.cycles s i
                && w.Rel.broken = S.broken s i)))

(* [out.word] is the word's readout after the program: on a clean word,
   and on one whose bit 2 has a broken oxide, so its first pulse fails
   after bits 0 and 1 have programmed and the word stops there. *)
let test_word_readout () =
  let d = fresh_device () in
  let s = S.create ~n:8 d in
  let m = S.memo s in
  let out = S.word_outcome () in
  let program ~base ~data =
    S.program_word s ~memo:m ~pulse:prog_short ~max_pulses:8 ~base ~bits:4
      ~sensed:(S.sense s ~base ~bits:4) ~data out
  in
  program ~base:0 ~data:0b1010;
  check_true "clean: no timeout" (not out.S.timed_out);
  Alcotest.(check int) "clean: the targets" 0b1010 out.S.word;
  Alcotest.(check int) "clean: the cells' readout" (S.sense s ~base:0 ~bits:4) out.S.word;
  S.For_testing.set s 6
    { Cell.device = d; qfg = 0.;
      wear = { Rel.fluence = 0.; traps = 0.; cycles = 0; broken = true } };
  (match program ~base:4 ~data:0 with
   | () -> Alcotest.fail "a broken bit must fail the word"
   | exception S.Pulse_error _ -> ());
  Alcotest.(check int) "failed: bits 0 and 1 programmed, 2 and 3 as before" 0b1100
    out.S.word;
  Alcotest.(check int) "failed: the cells' readout" (S.sense s ~base:4 ~bits:4) out.S.word

(* A zero-bit word reads and pulses nothing, whatever its data, and
   refills the outcome with 0 / 0 / false. *)
let test_empty_word () =
  let s = S.create ~n:2 (fresh_device ()) in
  let m = S.memo s in
  let out = S.word_outcome () in
  (* a target 1 over a programmed cell times out, a target 0 pulses *)
  S.set_qfg s 0 (-6e-18);
  S.program_word s ~memo:m ~pulse:prog_short ~max_pulses:8 ~base:0 ~bits:2
    ~sensed:(S.sense s ~base:0 ~bits:2) ~data:0b01 out;
  check_true "the 2-bit word pulsed and timed out" (out.S.total > 0 && out.S.timed_out);
  let digest () = S.fold_digest s W.digest_fold W.digest_empty in
  let before = digest () in
  List.iter
    (fun data ->
      S.program_word s ~memo:m ~pulse:prog_short ~max_pulses:8 ~base:0 ~bits:0 ~sensed:0
        ~data out;
      Alcotest.(check (list int))
        (Printf.sprintf "slowest, total, timeout at data %d" data)
        [ 0; 0; 0 ]
        [ out.S.slowest; out.S.total; Bool.to_int out.S.timed_out ])
    [ 0; 1; -1; max_int ];
  check_true "no cell changed" (digest () = before)

(* A surrogate-off store has no table build to keep in step, so it admits
   every clean in-box pulse to its memo: the repeat on a second cell at
   the same charge replays by id without reaching the engine, and lands
   on the first solve's bits. *)
let test_memo_without_surrogate () =
  let s = S.create ~surrogate:false ~n:2 (fresh_device ()) in
  let m = S.memo s in
  Tel.reset ();
  Tel.enable ();
  let engine_pulses =
    Fun.protect ~finally:(fun () -> Tel.disable (); Tel.reset ()) (fun () ->
        check_ok "first solve" (S.For_testing.apply_pulse_at s ~memo:m ~pulse:prog_pulse 0);
        check_ok "repeat" (S.For_testing.apply_pulse_at s ~memo:m ~pulse:prog_pulse 1);
        Tel.For_testing.counter_total "program_erase/pulse")
  in
  Alcotest.(check int) "memo hits" 1 (2 - engine_pulses);
  check_true "charge interned" (T.charge_id s 1 <> 0);
  check_true "same charge bits" (same_f (S.qfg s 0) (S.qfg s 1));
  check_true "same wear bits" (same_f (S.fluence s 0) (S.fluence s 1));
  check_true "same trap bits" (same_f (T.traps s 0) (T.traps s 1))

(* ---------- zero allocation on memo hits ---------- *)

(* Minor words allocated while [f] runs. [before] stays an unboxed float,
   so the measurement itself allocates nothing. *)
let minor_words_during f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_memo_hits_allocate_nothing () =
  let d = fresh_device () in
  let n = 8 in
  let s = S.create ~n d in
  (* half the cells programmed, half erased: both readouts and both
     kernel branches run *)
  let start =
    Array.init n (fun i ->
        {
          Cell.device = d;
          qfg = (if i mod 2 = 0 then -6e-18 else 0.);
          wear = { Rel.fluence = 0.; traps = 0.; cycles = 0; broken = false };
        })
  in
  let reset () =
    for i = 0 to n - 1 do
      S.For_testing.set s i start.(i)
    done
  in
  let pm = S.memo s and em = S.memo s in
  let at () =
    for i = 0 to n - 1 do
      ignore (S.For_testing.apply_pulse_at s ~memo:em ~pulse:erase_short i)
    done
  in
  let verify () =
    for i = 0 to n - 1 do
      ignore (S.program_verify s ~memo:pm ~pulse:prog_short ~max_pulses:8 i)
    done
  in
  let round () = ignore (S.erase_round s ~memo:em ~pulse:erase_short ~lo:0 ~hi:(n - 1)) in
  (* data 0b0110 on 4-cell words starting programmed, erased, programmed,
     erased: target-0 bits over a programmed and an erased cell, target-1
     bits over an erased one and a programmed one (a timeout) *)
  let out = S.word_outcome () in
  let word () =
    for base = 0 to (n / 4) - 1 do
      S.program_word s ~memo:pm ~pulse:prog_short ~max_pulses:8 ~base:(4 * base)
        ~bits:4 ~sensed:(S.sense s ~base:(4 * base) ~bits:4) ~data:0b0110 out
    done
  in
  (* 13-bit words of varied data, each program over a fresh copy of one
     sector (cells [0, 52), given charge ids by an erase pulse) blitted
     onto cells [52, 104) of a second store: the bit scan meets every
     position of the word *)
  let s13 = S.create ~n:104 d in
  let pm13 = S.memo s13 in
  for i = 0 to 51 do
    S.set_qfg s13 i (if i mod 3 = 0 then -6e-18 else 0.)
  done;
  check_ok "ids" (S.apply_pulse_range s13 ~memo:(S.memo s13) ~pulse:erase_short ~lo:0 ~hi:51);
  let draws = Array.init 64 (fun i -> ((i + 1) * 0x9E3779B1) lsr 7 land 0x1FFF) in
  let draw = ref 0 in
  let word13 () =
    S.blit s13 ~src:0 ~dst:52 ~len:52;
    for w = 0 to 3 do
      let base = 52 + (13 * w) in
      S.program_word s13 ~memo:pm13 ~pulse:prog_short ~max_pulses:8 ~base ~bits:13
        ~sensed:(S.sense s13 ~base ~bits:13) ~data:draws.((!draw + w) land 63) out
    done;
    draw := (!draw + 4) land 63
  in
  let erased () = ignore (S.all_erased s ~lo:0 ~hi:(n - 1)) in
  let sense () = ignore (S.sense s ~base:0 ~bits:n) in
  (* warm-up: every starting charge each kernel meets is memoized *)
  List.iter (fun f -> reset (); f ()) [ at; verify; round; word ];
  for _ = 1 to 16 do
    word13 ()
  done;
  let reps = 10_000 / n in
  let hits f =
    minor_words_during (fun () ->
        for _ = 1 to reps do
          reset ();
          f ()
        done)
  in
  Alcotest.(check (float 0.)) "reset alone" 0. (hits ignore);
  Alcotest.(check (float 0.)) "apply_pulse_at hits" 0. (hits at);
  Alcotest.(check (float 0.)) "program_verify hits" 0. (hits verify);
  Alcotest.(check (float 0.)) "erase_round hits" 0. (hits round);
  Alcotest.(check (float 0.)) "program_word hits" 0. (hits word);
  Alcotest.(check (float 0.)) "program_word hits (13-bit, varied data)" 0. (hits word13);
  Alcotest.(check (float 0.)) "all_erased" 0. (hits erased);
  Alcotest.(check (float 0.)) "sense" 0. (hits sense);
  (* the replays really were replays of the warm-up answers *)
  reset ();
  verify ();
  check_true "programmed" (bit s 1 = 0)

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
          case "ids keep the sign" test_ids_keep_sign;
          case "foreign memo rejected" test_foreign_memo_rejected;
          case "memo without the surrogate" test_memo_without_surrogate;
          case "zero-bit word" test_empty_word;
          case "program_word's word is the readout" test_word_readout;
          prop_ids_consistent;
          prop_side_by_side_inbox;
          prop_side_by_side_exact;
          prop_kernels;
          prop_kernels_wide;
          prop_kernels_rehash;
          prop_word_starved;
          prop_fsm_restores_on_error;
          case "memo hits allocate nothing" test_memo_hits_allocate_nothing;
        ] );
    ]
