module C = Gnrflash_memory.Command_fsm
module R = C.For_testing
module F = Gnrflash_device.Fgt
open Gnrflash_testing.Testing

(* Small geometry keeps the physics cheap; every pulse still goes through
   the surrogate-backed Program_erase path. *)
let small =
  { C.default_config with
    C.sectors = 2;
    words_per_sector = 4;
    word_bits = 5;
    write_buffer_words = 4;
    max_pulses = 4;
  }

let mk () = C.create ~config:small F.paper_default

let ok msg r = check_ok_with C.error_to_string msg r

let u1 t = 0x555 mod C.words t
let u2 t = 0x2AA mod C.words t

let unlock t =
  ok "unlock1" (C.write t ~addr:(u1 t) ~data:0xAA);
  ok "unlock2" (C.write t ~addr:(u2 t) ~data:0x55)

let issue_program t ~addr ~data =
  unlock t;
  ok "program setup" (C.write t ~addr:(u1 t) ~data:0xA0);
  ok "program data" (C.write t ~addr ~data)

let program t ~addr ~data =
  issue_program t ~addr ~data;
  C.wait_ready t

let issue_erase t ~sector =
  unlock t;
  ok "erase setup" (C.write t ~addr:(u1 t) ~data:0x80);
  unlock t;
  ok "erase confirm"
    (C.write t ~addr:(sector * small.C.words_per_sector) ~data:0x30)

let erase t ~sector =
  issue_erase t ~sector;
  C.wait_ready t

let word_at t ~addr =
  match R.read t ~addr with
  | R.Data w -> w
  | R.Status _ -> Alcotest.fail "expected data, device still busy"


let all_ones = (1 lsl small.C.word_bits) - 1

(* ---- unit tests ------------------------------------------------------ *)

let test_fresh_device () =
  let t = mk () in
  check_true "ready" (C.ready t);
  Alcotest.(check string) "idle" "idle" (C.state_name t);
  for addr = 0 to C.words t - 1 do
    Alcotest.(check int) "erased word" all_ones (C.sense_word t ~addr)
  done

let test_word_program_roundtrip () =
  let t = mk () in
  program t ~addr:1 ~data:0b00101;
  Alcotest.(check int) "programmed word reads back" 0b00101
    (word_at t ~addr:1);
  Alcotest.(check int) "neighbor untouched" all_ones (word_at t ~addr:0);
  let s = C.stats t in
  Alcotest.(check int) "one program op" 1 s.C.programs;
  check_true "pulses spent" (s.C.program_pulses > 0);
  Alcotest.(check int) "no timeouts" 0 s.C.verify_timeouts

(* A negative bus address wraps into [0, words) like a large one: -1 is
   the last word (7 of 8) for program, read, sense and sector lookup. *)
let test_negative_address_wraps () =
  let t = mk () and ref_ = mk () in
  program t ~addr:(-1) ~data:0b01010;
  program ref_ ~addr:7 ~data:0b01010;
  Alcotest.(check int) "same cells as addr 7" (C.state_digest ref_)
    (C.state_digest t);
  Alcotest.(check int) "read -1" 0b01010 (word_at t ~addr:(-1));
  Alcotest.(check int) "read 7" 0b01010 (word_at t ~addr:7);
  Alcotest.(check int) "sense -9" 0b01010 (C.sense_word t ~addr:(-9));
  (* the erase address -4 wraps to word 4, in sector 1 *)
  program t ~addr:0 ~data:0;
  erase t ~sector:(-1);
  Alcotest.(check int) "sector 1 erased" all_ones (word_at t ~addr:7);
  Alcotest.(check int) "sector 0 kept" 0 (word_at t ~addr:0)

let test_busy_status_and_rejection () =
  let t = mk () in
  issue_program t ~addr:0 ~data:0;
  check_false "busy after launch" (C.ready t);
  (match R.read t ~addr:0 with
   | R.Status { dq7; _ } -> Alcotest.(check int) "dq7 complements data" 1 dq7
   | R.Data _ -> Alcotest.fail "read data while busy");
  (* DQ6 toggles between consecutive status reads *)
  (match (R.read t ~addr:0, R.read t ~addr:0) with
   | R.Status { dq6 = a; _ }, R.Status { dq6 = b; _ } ->
     check_true "dq6 toggles" (a <> b)
   | _ -> Alcotest.fail "read data while busy");
  (match C.write t ~addr:0 ~data:0xAA with
   | Error (C.Busy _) -> ()
   | Error e -> Alcotest.failf "wrong error: %s" (C.error_to_string e)
   | Ok () -> Alcotest.fail "bus write accepted while busy");
  C.wait_ready t;
  Alcotest.(check int) "programmed" 0 (word_at t ~addr:0)

let test_model_time_advances () =
  let t = mk () in
  let t0 = C.now t in
  program t ~addr:0 ~data:0;
  let cfg = C.config t in
  (* at least 4 bus cycles plus one program pulse of busy time *)
  check_true "busy window charged"
    (C.now t -. t0
     >= (4. *. 100e-9) +. cfg.C.program_pulse.Gnrflash_device.Program_erase.duration)

let test_and_semantics_need_erase () =
  let t = mk () in
  program t ~addr:2 ~data:0;
  program t ~addr:2 ~data:all_ones;
  (* 1-bits cannot be raised by programming: the word stays 0 and the
     internal verify records the timeout — firmware must erase first *)
  Alcotest.(check int) "still programmed" 0 (word_at t ~addr:2);
  check_true "verify timeout recorded" ((C.stats t).C.verify_timeouts > 0);
  erase t ~sector:0;
  Alcotest.(check int) "erase restores" all_ones (word_at t ~addr:2);
  program t ~addr:2 ~data:all_ones;
  Alcotest.(check int) "program after erase works" all_ones
    (word_at t ~addr:2)

let test_sector_erase_is_local () =
  let t = mk () in
  program t ~addr:0 ~data:0;
  program t ~addr:4 ~data:0b01010;
  erase t ~sector:0;
  Alcotest.(check int) "sector 0 erased" all_ones (word_at t ~addr:0);
  Alcotest.(check int) "sector 1 untouched" 0b01010 (word_at t ~addr:4)

let test_chip_erase () =
  let t = mk () in
  program t ~addr:0 ~data:0;
  program t ~addr:5 ~data:0;
  unlock t;
  ok "erase setup" (C.write t ~addr:(u1 t) ~data:0x80);
  unlock t;
  ok "chip erase" (C.write t ~addr:(u1 t) ~data:0x10);
  C.wait_ready t;
  for addr = 0 to C.words t - 1 do
    Alcotest.(check int) "chip erased" all_ones (C.sense_word t ~addr)
  done;
  Alcotest.(check int) "counted" 1 (C.stats t).C.chip_erases

let test_write_buffer () =
  let t = mk () in
  let sa = 0 in
  unlock t;
  ok "buffer cmd" (C.write t ~addr:sa ~data:0x25);
  ok "count" (C.write t ~addr:sa ~data:2) (* N-1 = 2 -> 3 words *);
  ok "w0" (C.write t ~addr:0 ~data:0b00001);
  ok "w1" (C.write t ~addr:1 ~data:0b00010);
  ok "w2" (C.write t ~addr:2 ~data:0b00100);
  ok "confirm" (C.write t ~addr:sa ~data:0x29);
  C.wait_ready t;
  Alcotest.(check int) "w0" 0b00001 (word_at t ~addr:0);
  Alcotest.(check int) "w1" 0b00010 (word_at t ~addr:1);
  Alcotest.(check int) "w2" 0b00100 (word_at t ~addr:2);
  let s = C.stats t in
  Alcotest.(check int) "one buffered program op" 1 s.C.programs;
  Alcotest.(check int) "three words" 3 s.C.words_programmed

(* A word loaded twice into the buffer takes the last value loaded: the
   buffer holds one entry per address, so the cell never sees the AND of
   the two values. *)
let test_buffer_duplicate_last_wins () =
  let t = mk () in
  unlock t;
  ok "buffer cmd" (C.write t ~addr:0 ~data:0x25);
  ok "count" (C.write t ~addr:0 ~data:1) (* N-1 = 1 -> 2 load cycles *);
  ok "A <- 0x0F" (C.write t ~addr:1 ~data:0x0F);
  ok "A <- all ones" (C.write t ~addr:1 ~data:all_ones);
  ok "confirm" (C.write t ~addr:0 ~data:0x29);
  C.wait_ready t;
  Alcotest.(check int) "last value wins" all_ones (word_at t ~addr:1);
  Alcotest.(check int) "one word programmed" 1 (C.stats t).C.words_programmed

let test_buffer_overflow_and_crossing () =
  let t = mk () in
  unlock t;
  ok "buffer cmd" (C.write t ~addr:0 ~data:0x25);
  (match C.write t ~addr:0 ~data:(small.C.write_buffer_words + 3) with
   | Error (C.Buffer_overflow { capacity; _ }) ->
     Alcotest.(check int) "capacity reported" small.C.write_buffer_words capacity
   | Error e -> Alcotest.failf "wrong error: %s" (C.error_to_string e)
   | Ok () -> Alcotest.fail "oversized buffer accepted");
  unlock t;
  ok "buffer cmd" (C.write t ~addr:0 ~data:0x25);
  ok "count" (C.write t ~addr:0 ~data:1);
  (match C.write t ~addr:small.C.words_per_sector ~data:0 with
   | Error (C.Buffer_sector_crossing { sector = 0; _ }) -> ()
   | Error e -> Alcotest.failf "wrong error: %s" (C.error_to_string e)
   | Ok () -> Alcotest.fail "cross-sector load accepted");
  (* the device recovers: a fresh valid program still lands *)
  program t ~addr:1 ~data:0;
  Alcotest.(check int) "recovered" 0 (word_at t ~addr:1)

(* JEDEC encodes the buffer word count as N-1, so a count word of -1 (or
   one whose N overflows) asks for fewer than one word. Accepting it would
   leave the FSM loading forever, swallowing even the 0x29 confirm. *)
let test_buffer_count_below_one () =
  let t = mk () in
  List.iteri
    (fun i data ->
       unlock t;
       ok "buffer cmd" (C.write t ~addr:0 ~data:0x25);
       (match C.write t ~addr:0 ~data with
        | Error (C.Bad_sequence { state = "buffer_count"; _ }) -> ()
        | Error e -> Alcotest.failf "wrong error: %s" (C.error_to_string e)
        | Ok () -> Alcotest.failf "buffer count %d accepted" (data + 1));
       Alcotest.(check string) "back to idle" "idle" (C.state_name t);
       Alcotest.(check int) "counted" (i + 1) (C.stats t).C.bad_sequences)
    [ -1; max_int ];
  program t ~addr:1 ~data:0;
  Alcotest.(check int) "recovered" 0 (word_at t ~addr:1)

let test_suspend_resume () =
  let t = mk () in
  program t ~addr:0 ~data:0;
  issue_erase t ~sector:0;
  check_false "erasing" (C.ready t);
  ok "suspend" (C.write t ~addr:0 ~data:0xB0);
  check_true "ready while suspended" (C.ready t);
  Alcotest.(check string) "state" "erase_suspended" (C.state_name t);
  (* reads inside the suspended sector answer with DQ2 toggling *)
  (match (R.read t ~addr:0, R.read t ~addr:0) with
   | R.Status { dq2 = a; dq6 = a6; _ }, R.Status { dq2 = b; dq6 = b6; _ } ->
     check_true "dq2 toggles" (a <> b);
     check_true "dq6 frozen during suspend" (a6 = b6)
   | _ -> Alcotest.fail "suspended sector served data");
  (* other sectors serve data as usual *)
  (match R.read t ~addr:small.C.words_per_sector with
   | R.Data _ -> ()
   | R.Status _ -> Alcotest.fail "other sector blocked during suspend");
  ok "resume" (C.write t ~addr:0 ~data:0x30);
  check_false "busy again" (C.ready t);
  C.wait_ready t;
  Alcotest.(check int) "erase completed" all_ones (word_at t ~addr:0);
  let s = C.stats t in
  Alcotest.(check int) "suspend counted" 1 s.C.suspends;
  Alcotest.(check int) "resume counted" 1 s.C.resumes

let test_program_other_sector_during_suspend () =
  let t = mk () in
  program t ~addr:0 ~data:0;
  issue_erase t ~sector:0;
  ok "suspend" (C.write t ~addr:0 ~data:0xB0);
  (* programming inside the suspended sector is rejected... *)
  unlock t;
  ok "program setup" (C.write t ~addr:(u1 t) ~data:0xA0);
  (match C.write t ~addr:1 ~data:0 with
   | Error (C.Bad_sequence { state = "erase_suspended"; _ }) -> ()
   | Error e -> Alcotest.failf "wrong error: %s" (C.error_to_string e)
   | Ok () -> Alcotest.fail "program into suspended sector accepted");
  (* ...but another sector accepts a nested program *)
  issue_program t ~addr:small.C.words_per_sector ~data:0;
  C.wait_ready t;
  Alcotest.(check int) "nested program landed" 0
    (C.sense_word t ~addr:small.C.words_per_sector);
  ok "resume" (C.write t ~addr:0 ~data:0x30);
  C.wait_ready t;
  Alcotest.(check int) "erase still completed" all_ones
    (word_at t ~addr:0)

let test_suspend_resume_errors () =
  let t = mk () in
  (match C.write t ~addr:0 ~data:0xB0 with
   | Error C.Not_erasing -> ()
   | Error e -> Alcotest.failf "wrong error: %s" (C.error_to_string e)
   | Ok () -> Alcotest.fail "suspend accepted while idle");
  (* a program cannot be suspended *)
  issue_program t ~addr:0 ~data:0;
  if not (C.ready t) then (
    match C.write t ~addr:0 ~data:0xB0 with
    | Error C.Not_erasing -> ()
    | Error e -> Alcotest.failf "wrong error: %s" (C.error_to_string e)
    | Ok () -> Alcotest.fail "suspend accepted during program");
  C.wait_ready t

let test_reset_and_bad_sequences () =
  let t = mk () in
  unlock t;
  ok "reset mid-sequence" (C.write t ~addr:0 ~data:0xF0);
  Alcotest.(check string) "back to idle" "idle" (C.state_name t);
  (match C.write t ~addr:3 ~data:0x90 with
   | Error (C.Bad_sequence { state = "idle"; addr = 3; data = 0x90 }) -> ()
   | Error e -> Alcotest.failf "wrong error: %s" (C.error_to_string e)
   | Ok () -> Alcotest.fail "stray command accepted");
  (* wrong second unlock cycle *)
  ok "unlock1" (C.write t ~addr:(u1 t) ~data:0xAA);
  (match C.write t ~addr:(u1 t) ~data:0x99 with
   | Error (C.Bad_sequence _) -> ()
   | Error e -> Alcotest.failf "wrong error: %s" (C.error_to_string e)
   | Ok () -> Alcotest.fail "bad unlock accepted");
  check_true "rejections counted" ((C.stats t).C.bad_sequences >= 2);
  (* the machine still works afterwards *)
  program t ~addr:0 ~data:0b00011;
  Alcotest.(check int) "recovered" 0b00011 (word_at t ~addr:0)

let test_poll_ready () =
  let t = mk () in
  issue_program t ~addr:0 ~data:0;
  let cfg = C.config t in
  let polls =
    C.poll_ready t
      ~interval:(cfg.C.program_pulse.Gnrflash_device.Program_erase.duration /. 8.)
  in
  check_true "polled at least once" (polls >= 1);
  check_true "ready after polling" (C.ready t);
  Alcotest.(check int) "programmed" 0 (word_at t ~addr:0)

let test_digest_determinism () =
  let script t =
    program t ~addr:0 ~data:0b00110;
    erase t ~sector:0;
    program t ~addr:5 ~data:0b10001
  in
  let a = mk () and b = mk () in
  script a;
  script b;
  Alcotest.(check int) "same script, same digest" (C.state_digest a)
    (C.state_digest b);
  let c = mk () in
  program c ~addr:0 ~data:0b00110;
  check_true "different history, different digest"
    (C.state_digest c <> C.state_digest a)

(* Disturb accounting: every program pulse counts one gate-disturb event
   per unselected word of the sector; programming all-ones over erased
   cells needs no pulse, so it counts none. *)
let test_disturb_accounting () =
  let events ~data =
    let t = mk () in
    program t ~addr:0 ~data;
    (C.stats t).C.disturb_events
  in
  let n = events ~data:0 in
  check_true "programming 0s counts events" (n > 0);
  Alcotest.(check int) "whole pulses over the unselected words" 0
    (n mod (small.C.words_per_sector - 1));
  Alcotest.(check int) "no pulses, no events" 0 (events ~data:all_ones)

(* ---- properties ------------------------------------------------------ *)

(* Native code only. Minor words of the bus write cycle that launches an
   embedded operation. *)
let launch_words t ~addr ~data =
  let w0 = Gc.minor_words () in
  let r = C.write t ~addr ~data in
  let w = Gc.minor_words () -. w0 in
  ok "launch" r;
  w

(* The running operation and the suspended erase are int fields: once its
   pulse transitions replay from the memos, a word program or a sector
   erase launches without allocating. The erase's over-erased cells drift
   for the first couple of dozen cycles (each new charge is a solve), then
   settle. *)
let test_warm_launch_allocation () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let t = mk () in
  let cycle () =
    unlock t;
    ok "program setup" (C.write t ~addr:(u1 t) ~data:0xA0);
    let program = launch_words t ~addr:1 ~data:0b00101 in
    check_true "program busy" (not (C.ready t));
    C.wait_ready t;
    unlock t;
    ok "erase setup" (C.write t ~addr:(u1 t) ~data:0x80);
    unlock t;
    let erase = launch_words t ~addr:0 ~data:0x30 in
    check_true "erase busy" (not (C.ready t));
    C.wait_ready t;
    (program, erase)
  in
  for _ = 1 to 40 do
    ignore (cycle () : float * float)
  done;
  for _ = 1 to 10 do
    let program, erase = cycle () in
    Alcotest.(check (float 0.)) "minor words per warm program launch" 0. program;
    Alcotest.(check (float 0.)) "minor words per warm sector-erase launch" 0.
      erase
  done

(* Native code only. A busy device polled until ready allocates nothing:
   [poll_ready] reads the status through [read_word] and never builds a
   status variant. Warm, as above, so the launches replay from the memos. *)
let test_poll_allocation () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let t = mk () in
  let interval =
    (C.config t).C.program_pulse.Gnrflash_device.Program_erase.duration /. 8.
  in
  let poll () =
    check_true "busy before polling" (not (C.ready t));
    let w0 = Gc.minor_words () in
    let polls = C.poll_ready t ~interval in
    let w = Gc.minor_words () -. w0 in
    check_true "polled at least once" (polls >= 1);
    check_true "ready after polling" (C.ready t);
    w
  in
  let cycle () =
    issue_program t ~addr:1 ~data:0b00101;
    let program = poll () in
    issue_erase t ~sector:0;
    (program, poll ())
  in
  for _ = 1 to 40 do
    ignore (cycle () : float * float)
  done;
  for _ = 1 to 10 do
    let program, erase = cycle () in
    Alcotest.(check (float 0.)) "minor words polling a busy program" 0. program;
    Alcotest.(check (float 0.)) "minor words polling a busy erase" 0. erase
  done

(* Native code only. [C.now] is a field load that the compiler inlines
   into this module, so the clock comes back unboxed. Under -opaque (dune's
   dev profile, [--profile dev]) no call crosses a module inlined and every
   float returned across a module boundary is boxed: each read then costs
   2 words and this test fails. The default profile, set in dune-workspace,
   builds without -opaque. *)
let test_now_unboxed_across_modules () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let t = mk () in
  program t ~addr:0 ~data:0b00110;
  let sum = [| 0. |] in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    sum.(0) <- sum.(0) +. C.now t
  done;
  let w = Gc.minor_words () -. w0 in
  check_true "the clock has advanced" (sum.(0) > 0.);
  Alcotest.(check (float 0.)) "minor words for 10k cross-module now reads" 0. w

let prop_program_read_roundtrip =
  prop "programmed word always reads back" ~count:25
    QCheck2.Gen.(pair (int_range 0 7) (int_range 0 31))
    (fun (addr, data) ->
       let t = mk () in
       program t ~addr ~data;
       word_at t ~addr = data)

let prop_busy_until_wait =
  prop "reads answer status until the busy window closes" ~count:25
    QCheck2.Gen.(pair (int_range 0 7) (int_range 0 30))
    (fun (addr, data) ->
       let t = mk () in
       issue_program t ~addr ~data;
       (* data < 31 guarantees at least one 0 bit, hence a busy window *)
       let was_busy = not (C.ready t) in
       let status_while_busy =
         match R.read t ~addr with R.Status _ -> true | R.Data _ -> false
       in
       C.wait_ready t;
       let data_after =
         match R.read t ~addr with R.Data _ -> true | R.Status _ -> false
       in
       was_busy && status_while_busy && data_after)

let prop_suspend_resume_transparent =
  prop "suspended erase converges to the uninterrupted result" ~count:15
    QCheck2.Gen.(int_range 0 31)
    (fun data ->
       let straight = mk () and suspended = mk () in
       program straight ~addr:0 ~data;
       erase straight ~sector:0;
       program suspended ~addr:0 ~data;
       issue_erase suspended ~sector:0;
       (match C.write suspended ~addr:0 ~data:0xB0 with
        | Ok () ->
          ignore (R.read suspended ~addr:0);
          (match C.write suspended ~addr:0 ~data:0x30 with
           | Ok () -> ()
           | Error _ -> ())
        | Error C.Not_erasing -> () (* zero-length busy window: already done *)
        | Error _ -> ());
       C.wait_ready suspended;
       let sense t =
         List.init (C.words t) (fun addr -> C.sense_word t ~addr)
       in
       sense straight = sense suspended)

let prop_garbage_cycle_rejected_then_recovers =
  prop "arbitrary first cycles are rejected and leave the machine usable"
    ~count:40
    QCheck2.Gen.(pair (int_range 0 7) (int_range 0 255))
    (fun (addr, data) ->
       let t = mk () in
       let garbage_rejected =
         if addr = u1 t && data = 0xAA then true (* legitimate unlock start *)
         else
           match C.write t ~addr ~data with
           | Ok () -> data = 0xF0 (* reset is always accepted *)
           | Error (C.Bad_sequence _) | Error C.Not_erasing -> true
           | Error _ -> false
       in
       ok "reset" (C.write t ~addr:0 ~data:0xF0);
       program t ~addr:0 ~data:0b00111;
       garbage_rejected && word_at t ~addr:0 = 0b00111)

(* ---- the int read against the variant read -------------------------- *)

(* A random bus script: command sequences and raw cycles, at addresses
   that are in range, negative or past the span, so the decode's fast
   path and its wrap both run, and reads land while busy and inside a
   suspended sector. *)
type bus_op =
  | Raw of int * int (* one bus write cycle: addr, data *)
  | Program of int * int * int (* unlock alias, addr, data *)
  | Erase of int * int * bool
      (* unlock alias, an address in the sector, suspend at once *)
  | Buffer of int * (int * int) list (* sector address, loads *)
  | Read of int
  | Wait

let n_words = small.C.sectors * small.C.words_per_sector

(* where [read_word] must sense address [a] *)
let canonical a = ((a mod n_words) + n_words) mod n_words

let gen_bus_ops =
  let open QCheck2.Gen in
  let addr =
    frequency
      [
        (4, int_range 0 (n_words - 1));
        (2, int_range (-4 * n_words) (-1));
        (2, int_range n_words (4 * n_words));
        (1, oneofl [ min_int; max_int; -1; n_words ]);
      ]
  in
  (* an unlock address's alias: the same word, [k] spans away *)
  let alias = int_range (-2) 2 in
  let data = int_range 0 ((1 lsl small.C.word_bits) - 1) in
  let command = oneofl [ 0xAA; 0x55; 0xA0; 0x80; 0x30; 0x10; 0xB0; 0xF0; 0x25; 0x29 ] in
  let op =
    frequency
      [
        (2, map2 (fun a d -> Raw (a, d)) addr (oneof [ command; data ]));
        (1, return (Raw (0, 0xB0)) (* suspend *));
        (1, return (Raw (0, 0x30)) (* resume *));
        (3, map3 (fun k a d -> Program (k, a, d)) alias addr data);
        (3, map3 (fun k a s -> Erase (k, a, s)) alias addr bool);
        ( 1,
          map2
            (fun a loads -> Buffer (a, loads))
            addr
            (list_size (int_range 1 small.C.write_buffer_words) (pair addr data)) );
        (5, map (fun a -> Read a) addr);
        (4, return Wait);
      ]
  in
  list_size (int_range 1 40) op

let print_bus_op = function
  | Raw (a, d) -> Printf.sprintf "Raw(%d,0x%X)" a d
  | Program (k, a, d) -> Printf.sprintf "Program(%d,%d,%d)" k a d
  | Erase (k, a, s) -> Printf.sprintf "Erase(%d,%d,%b)" k a s
  | Buffer (a, l) ->
    Printf.sprintf "Buffer(%d,[%s])" a
      (String.concat ";" (List.map (fun (x, d) -> Printf.sprintf "%d,%d" x d) l))
  | Read a -> Printf.sprintf "Read %d" a
  | Wait -> "Wait"

(* Runs the script on [t], answering each bus read with [read]: a data
   word as itself, a status answer as [-1 - (DQ7, DQ6, DQ5, DQ2 at bits
   7, 6, 5, 2)]. Returns every cycle's outcome in order, and whether
   each data answer was the word at the address's canonical slot. *)
let run_script t ~read ops =
  let out = ref [] and landed = ref true in
  let w ~addr ~data =
    out := (match C.write t ~addr ~data with Ok () -> 0 | Error _ -> 1) :: !out
  in
  let unlock k =
    w ~addr:(u1 t + (k * n_words)) ~data:0xAA;
    w ~addr:(u2 t - (k * n_words)) ~data:0x55
  in
  List.iter
    (function
      | Raw (addr, data) -> w ~addr ~data
      | Program (k, addr, data) ->
        unlock k;
        w ~addr:(u1 t) ~data:0xA0;
        w ~addr ~data
      | Erase (k, addr, suspend) ->
        unlock k;
        w ~addr:(u1 t - (k * n_words)) ~data:0x80;
        unlock (-k);
        w ~addr ~data:0x30;
        if suspend then w ~addr ~data:0xB0
      | Buffer (addr, loads) ->
        unlock 0;
        w ~addr ~data:0x25;
        w ~addr ~data:(List.length loads - 1);
        List.iter (fun (a, d) -> w ~addr:a ~data:d) loads;
        w ~addr ~data:0x29
      | Read addr ->
        let r = read t ~addr in
        if r >= 0 && r <> C.sense_word t ~addr:(canonical addr) then landed := false;
        out := r :: !out
      | Wait -> C.wait_ready t)
    ops;
  (List.rev !out, !landed)

let variant_read t ~addr =
  match R.read t ~addr with
  | R.Data w -> w
  | R.Status { dq7; dq6; dq5; dq2 } ->
    -1 - ((dq7 lsl 7) lor (dq6 lsl 6) lor (dq5 lsl 5) lor (dq2 lsl 2))

let int_read t ~addr =
  let w = C.read_word t ~addr in
  if w >= 0 then w else -1 - (w land 0b1110_0100)

let prop_int_read_matches_variant =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200
       ~name:"read_word = read, on random bus scripts"
       ~print:(fun ops -> String.concat " " (List.map print_bus_op ops))
       gen_bus_ops
       (fun ops ->
          let a = mk () and b = mk () in
          let out_a, landed_a = run_script a ~read:variant_read ops in
          let out_b, landed_b = run_script b ~read:int_read ops in
          out_a = out_b && landed_a && landed_b
          && C.stats a = C.stats b
          && C.state_digest a = C.state_digest b))

(* ---- the kept readout against the cells ------------------------------ *)

(* [read_word] answers data reads from a readout the device keeps per
   word; [sense_word] senses the cells. Random bus sequences run on one of
   two devices. The paper device with a program pulse short enough (out
   of the surrogate's box, about 5 exact solves per bit) that a starved
   eval budget fails words inside a bit's verify loop; its first erase
   rounds solve exactly, so a budget fails them part-way through the
   sector. And a thick tunnel oxide, whose -15 V erase pulses take several
   rounds and can run out of [max_pulses] with the sector part-erased. *)
module Budget = Gnrflash_resilience.Budget
module U = Gnrflash_units

let starvable =
  {
    small with
    C.program_pulse = { Gnrflash_device.Program_erase.vgs = 15.; duration = 0.5e-9 };
    max_pulses = 8;
  }

let slow_erase =
  { starvable with C.program_pulse = { Gnrflash_device.Program_erase.vgs = 22.; duration = 1e-3 } }

let slow_erase_device =
  F.make ~gcr:0.6 ~xto:(U.metre 11.5e-9) ~xco:(U.metre 23e-9)
    ~area:(U.square_metre (32e-9 *. 32e-9)) ()

type kept_op =
  | K_program of int * int (* addr, data *)
  | K_buffer of int * (int * int) list
      (* sector, loads; the first address is loaded again last *)
  | K_erase of int * bool (* sector; suspend, read, resume *)
  | K_chip
  | K_reset
  | K_raw of int * int (* a cycle no sequence may accept *)
  | K_wait
  | K_starved of int * kept_op (* the op under a budget of this many evals *)

let rec print_kept_op = function
  | K_program (a, d) -> Printf.sprintf "Program(%d,%d)" a d
  | K_buffer (s, l) ->
    Printf.sprintf "Buffer(%d,[%s])" s
      (String.concat ";" (List.map (fun (a, d) -> Printf.sprintf "%d,%d" a d) l))
  | K_erase (s, sus) -> Printf.sprintf "Erase(%d,%b)" s sus
  | K_chip -> "Chip"
  | K_reset -> "Reset"
  | K_raw (a, d) -> Printf.sprintf "Raw(%d,0x%X)" a d
  | K_wait -> "Wait"
  | K_starved (n, op) -> Printf.sprintf "Starved(%d,%s)" n (print_kept_op op)

let gen_kept_ops =
  let open QCheck2.Gen in
  let wps = starvable.C.words_per_sector in
  let data = int_range 0 ((1 lsl starvable.C.word_bits) - 1) in
  let sector = int_range 0 (starvable.C.sectors - 1) in
  let buffer =
    sector >>= fun s ->
    list_size (int_range 1 (starvable.C.write_buffer_words - 1))
      (pair (int_range 0 (wps - 1)) data)
    >>= fun loads ->
    data >|= fun again ->
    let at (o, d) = ((s * wps) + o, d) in
    K_buffer (s, List.map at (loads @ [ (fst (List.hd loads), again) ]))
  in
  let physics =
    frequency
      [
        (4, map2 (fun a d -> K_program (a, d)) (int_range 0 (n_words - 1)) data);
        (2, buffer);
        (3, map2 (fun s sus -> K_erase (s, sus)) sector bool);
        (1, return K_chip);
      ]
  in
  let op =
    frequency
      [
        (6, physics);
        ( 3,
          map2
            (fun n op -> K_starved (n, op))
            (oneof [ int_range 1 300; int_range 1 5000 ])
            physics );
        (1, return K_reset);
        (1, map2 (fun a d -> K_raw (a, d)) (int_range 0 (n_words - 1)) (oneofl [ 0x29; 0xA0; 0x55; 0x10 ]));
        (4, return K_wait);
      ]
  in
  pair bool (list_size (int_range 1 25) op)

(* Every word whose read answers data reads what its cells sense. *)
let kept_readout_holds t =
  List.for_all
    (fun addr ->
      let r = C.read_word t ~addr in
      r < 0 || r = C.sense_word t ~addr)
    (List.init (C.words t) Fun.id)

let prop_kept_readout =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000
       ~name:"read_word's data = sense_word after every cycle"
       ~print:(fun (slow, ops) ->
           Printf.sprintf "%s: %s"
             (if slow then "slow erase" else "paper")
             (String.concat " " (List.map print_kept_op ops)))
       gen_kept_ops
       (fun (slow, ops) ->
          let t =
            if slow then C.create ~config:slow_erase slow_erase_device
            else C.create ~config:starvable F.paper_default
          in
          let held = ref true in
          let w ~addr ~data =
            ignore (C.write t ~addr ~data : (unit, C.error) result);
            if not (kept_readout_holds t) then held := false
          in
          let unlock () =
            w ~addr:(u1 t) ~data:0xAA;
            w ~addr:(u2 t) ~data:0x55
          in
          let rec run = function
            | K_program (addr, data) ->
              unlock ();
              w ~addr:(u1 t) ~data:0xA0;
              w ~addr ~data
            | K_buffer (sector, loads) ->
              let sa = sector * starvable.C.words_per_sector in
              unlock ();
              w ~addr:sa ~data:0x25;
              w ~addr:sa ~data:(List.length loads - 1);
              List.iter (fun (addr, data) -> w ~addr ~data) loads;
              w ~addr:sa ~data:0x29
            | K_erase (sector, suspend) ->
              let sa = sector * starvable.C.words_per_sector in
              unlock ();
              w ~addr:(u1 t) ~data:0x80;
              unlock ();
              w ~addr:sa ~data:0x30;
              if suspend then begin
                w ~addr:sa ~data:0xB0;
                ignore (C.read_word t ~addr:sa : int);
                w ~addr:sa ~data:0x30
              end
            | K_chip ->
              unlock ();
              w ~addr:(u1 t) ~data:0x80;
              unlock ();
              w ~addr:(u1 t) ~data:0x10
            | K_reset -> w ~addr:0 ~data:0xF0
            | K_raw (addr, data) -> w ~addr ~data
            | K_wait ->
              C.wait_ready t;
              if not (kept_readout_holds t) then held := false
            | K_starved (max_evals, op) ->
              C.wait_ready t;
              Budget.with_budget (Budget.make ~max_evals ()) (fun () -> run op)
          in
          List.iter run ops;
          C.wait_ready t;
          !held && kept_readout_holds t))

let () =
  Alcotest.run "command_fsm"
    [
      ( "command_fsm",
        [
          case "fresh device" test_fresh_device;
          case "word program roundtrip" test_word_program_roundtrip;
          case "negative address wraps" test_negative_address_wraps;
          case "busy status and rejection" test_busy_status_and_rejection;
          case "model time advances" test_model_time_advances;
          case "AND semantics need erase" test_and_semantics_need_erase;
          case "sector erase is local" test_sector_erase_is_local;
          case "chip erase" test_chip_erase;
          case "write buffer" test_write_buffer;
          case "write buffer duplicate: last value wins"
            test_buffer_duplicate_last_wins;
          case "buffer overflow and crossing" test_buffer_overflow_and_crossing;
          case "buffer count below one" test_buffer_count_below_one;
          case "suspend and resume" test_suspend_resume;
          case "program during suspend" test_program_other_sector_during_suspend;
          case "suspend/resume errors" test_suspend_resume_errors;
          case "reset and bad sequences" test_reset_and_bad_sequences;
          case "poll ready" test_poll_ready;
          case "digest determinism" test_digest_determinism;
          case "disturb accounting" test_disturb_accounting;
          case "warm launch allocation" test_warm_launch_allocation;
          case "poll of a busy device allocates nothing" test_poll_allocation;
          case "now is unboxed across modules (boxed under -opaque, --profile dev)"
            test_now_unboxed_across_modules;
          prop_program_read_roundtrip;
          prop_busy_until_wait;
          prop_suspend_resume_transparent;
          prop_garbage_cycle_rejected_then_recovers;
          prop_int_read_matches_variant;
          prop_kept_readout;
        ] );
    ]
