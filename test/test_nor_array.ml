module N = Gnrflash_memory.Nor_array
module F = Gnrflash_device.Fgt
module Sweep = Gnrflash_parallel.Sweep
open Gnrflash_testing.Testing

let fresh () = N.make F.paper_default ~cells:8

let test_make () =
  let t = fresh () in
  Alcotest.(check int) "cells" 8 (N.length t);
  Alcotest.check_raises "empty" (Invalid_argument "Nor_array.make: cells < 1") (fun () ->
      ignore (N.make F.paper_default ~cells:0))

let test_fresh_reads_ones () =
  let t = fresh () in
  for i = 0 to 7 do
    Alcotest.(check int) "erased" 1 (check_ok "read" (N.read_bit t ~index:i))
  done

let test_program_and_random_access_read () =
  let t = fresh () in
  let t = check_ok "program" (N.program_bit t ~index:3) in
  Alcotest.(check int) "programmed cell" 0 (check_ok "read" (N.read_bit t ~index:3));
  Alcotest.(check int) "neighbor untouched" 1 (check_ok "read" (N.read_bit t ~index:2));
  Alcotest.(check int) "programs counted" 1 (N.programs t)

let test_che_injection_self_limits () =
  let t = fresh () in
  let t = check_ok "p1" (N.program_bit t ~index:0) in
  let q1 = (N.cell t 0).Gnrflash_memory.Cell.qfg in
  let t = check_ok "p2" (N.program_bit t ~index:0) in
  let q2 = (N.cell t 0).Gnrflash_memory.Cell.qfg in
  check_true "first pulse stores charge" (q1 < 0.);
  check_true "bounded by saturation" (q2 >= q1 -. abs_float q1);
  (* the stored threshold stays physical *)
  let dvt = Gnrflash_memory.Cell.dvt (N.cell t 0) in
  check_in "dvt physical" ~lo:0. ~hi:10. dvt

let test_supply_charge_accounting () =
  let t = fresh () in
  let t = check_ok "program" (N.program_bit t ~index:1) in
  (* 0.5 mA for 1 us = 5e-10 C per program *)
  check_close ~tol:1e-9 "drain charge" 5e-10 (N.total_supply_charge t)

let test_erase_all () =
  let t = fresh () in
  let t = check_ok "program" (N.program_bit t ~index:5) in
  let t = check_ok "erase" (N.erase_all t) in
  for i = 0 to 7 do
    Alcotest.(check int) "erased" 1 (check_ok "read" (N.read_bit t ~index:i))
  done

(* A 64-cell word line with two of every three cells programmed, erased
   under the given default job count on its own device record (the
   per-domain pulse caches are keyed on record identity); returns the
   charge bits. *)
let erase_bits_under ~jobs =
  let device = { F.paper_default with F.vs = F.paper_default.F.vs } in
  Sweep.set_default_jobs jobs;
  let t = N.make device ~cells:64 in
  for i = 0 to 63 do
    if i mod 3 <> 0 then ignore (check_ok "program" (N.program_bit t ~index:i))
  done;
  let t = check_ok "erase" (N.erase_all t) in
  Array.init 64 (fun i -> Int64.bits_of_float (N.cell t i).Gnrflash_memory.Cell.qfg)

let test_erase_all_jobs_invariant () =
  let saved = Sweep.default_jobs () in
  Fun.protect
    ~finally:(fun () -> Sweep.set_default_jobs saved)
    (fun () ->
       let serial = erase_bits_under ~jobs:1 in
       let parallel = erase_bits_under ~jobs:2 in
       Alcotest.(check (array int64)) "charge bits" serial parallel)

let test_bad_index () =
  check_error "program oob" (N.program_bit (fresh ()) ~index:99);
  check_error "read oob" (N.read_bit (fresh ()) ~index:(-1))

let test_programming_current_cap () =
  let t = fresh () in
  (* programming a whole 4 kB page at once would need amps: the NOR
     parallelism limit of paper Section II *)
  let i_page = N.programming_current t ~simultaneous:32768 in
  check_true "page current in amps" (i_page > 10.);
  check_close "per-cell current" 0.5e-3 (N.programming_current t ~simultaneous:1)

let () =
  Alcotest.run "nor_array"
    [
      ( "nor_array",
        [
          case "make" test_make;
          case "fresh reads ones" test_fresh_reads_ones;
          case "program + random access" test_program_and_random_access_read;
          case "CHE self-limiting" test_che_injection_self_limits;
          case "supply charge accounting" test_supply_charge_accounting;
          case "erase all" test_erase_all;
          case "erase all independent of --jobs" test_erase_all_jobs_invariant;
          case "index errors" test_bad_index;
          case "programming current cap" test_programming_current_cap;
        ] );
    ]
