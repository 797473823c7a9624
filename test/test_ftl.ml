module F = Gnrflash_memory.Ftl
module W = Gnrflash_memory.Workload
module Sm = Gnrflash_prng.Splitmix
open Gnrflash_testing.Testing

let small = { F.blocks = 4; pages_per_block = 8; gc_threshold = 4; endurance_limit = 1000 }

let check_fok msg r = check_ok_with F.error_to_string msg r

let test_create () =
  let t = F.create small in
  (* (4-1) blocks x 8 pages x 7/8 = 21 *)
  Alcotest.(check int) "logical capacity" 21 (F.logical_capacity t);
  let s = F.stats t in
  Alcotest.(check int) "no writes" 0 s.F.host_writes;
  Alcotest.(check int) "no erases" 0 s.F.erases

let test_create_validation () =
  Alcotest.check_raises "one block" (Invalid_argument "Ftl.create: need >= 2 blocks and >= 1 page")
    (fun () -> ignore (F.create { small with F.blocks = 1 }))

let test_write_and_read () =
  let t = F.create small in
  check_fok "write" (F.write_in_place t ~lpn:5);
  (match F.read t ~lpn:5 with
   | Some _ -> ()
   | None -> Alcotest.fail "mapping missing");
  check_true "unwritten page unmapped" (F.read t ~lpn:6 = None)

let test_rewrite_moves_page () =
  let t = F.create small in
  check_fok "w1" (F.write_in_place t ~lpn:3);
  let loc1 = F.read t ~lpn:3 in
  check_fok "w2" (F.write_in_place t ~lpn:3);
  let loc2 = F.read t ~lpn:3 in
  check_true "out-of-place update" (loc1 <> loc2);
  let s = F.stats t in
  Alcotest.(check int) "2 host writes" 2 s.F.host_writes

let test_out_of_range () =
  let t = F.create small in
  match F.write_in_place t ~lpn:99 with
  | Error (F.Out_of_range 99) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (F.error_to_string e)
  | Ok _ -> Alcotest.fail "expected Out_of_range"

let test_trim () =
  let t = F.create small in
  check_fok "write" (F.write_in_place t ~lpn:1);
  F.trim_in_place t ~lpn:1;
  check_true "unmapped after trim" (F.read t ~lpn:1 = None)

let test_gc_triggers_under_pressure () =
  let t = F.create small in
  (* hammer one logical page enough to exhaust free pages repeatedly *)
  for _ = 1 to 100 do
    check_fok "write" (F.write_in_place t ~lpn:0)
  done;
  let s = F.stats t in
  check_true "GC ran" (s.F.gc_runs > 0);
  check_true "erases happened" (s.F.erases > 0);
  Alcotest.(check int) "all writes landed" 100 s.F.host_writes;
  (* the page is still readable *)
  check_true "still mapped" (F.read t ~lpn:0 <> None)

let test_write_amplification_bounds () =
  let t = F.create small in
  let ops = W.generate ~seed:5 W.Uniform ~pages:28 ~strings:1 ~ops:300 ~read_fraction:0. in
  check_fok "trace" (F.run_trace t ops);
  let s = F.stats t in
  check_true "wa >= 1" (s.F.write_amplification >= 1.);
  check_true "wa sane" (s.F.write_amplification < 10.)

let test_wear_leveling_spread () =
  let t = F.create { small with F.blocks = 8 } in
  let ops = W.generate ~seed:9 W.Uniform ~pages:56 ~strings:1 ~ops:2000 ~read_fraction:0. in
  check_fok "trace" (F.run_trace t ops);
  let s = F.stats t in
  check_true "work spread over blocks" (s.F.min_erase_count > 0);
  (* allocation prefers cold blocks: spread stays a small multiple of min *)
  check_true "bounded spread"
    (float_of_int s.F.max_erase_count <= (3. *. float_of_int s.F.min_erase_count) +. 5.);
  check_close ~tol:1e-12 "wear_spread agrees with stats"
    (float_of_int (s.F.max_erase_count - s.F.min_erase_count))
    (F.wear_spread t)

let test_sequential_vs_random_wa () =
  (* sequential rewrites invalidate whole blocks: cheaper GC than random *)
  let run pattern =
    let t = F.create { small with F.blocks = 8 } in
    let ops = W.generate ~seed:4 pattern ~pages:56 ~strings:1 ~ops:1500 ~read_fraction:0. in
    check_fok "trace" (F.run_trace t ops);
    (F.stats t).F.write_amplification
  in
  let wa_seq = run W.Sequential in
  let wa_zipf = run (W.Zipf 1.2) in
  check_true "sequential WA modest" (wa_seq < 2.5);
  check_true "both computed" (wa_zipf >= 1.)

let test_endurance_retirement () =
  let t = F.create { small with F.endurance_limit = 3 } in
  let rec hammer n =
    if n = 0 then Ok ()
    else match F.write_in_place t ~lpn:0 with Ok () -> hammer (n - 1) | Error e -> Error e
  in
  (* blocks retire after 3 erases each; the device eventually fills *)
  match hammer 2000 with
  | Ok () -> check_true "some retirement happened" ((F.stats t).F.retired_blocks > 0)
  | Error _ -> () (* running out of space after retirement is the expected end state *)

(* ---- PR regression: the space-accounting bug ------------------------- *)

(* Crash-recovery-style snapshot with the write point lost and every free
   page stranded mid-block: [free_pages > 0] but no open block has room and
   no fully-free block exists to open, and with zero Invalid pages GC has
   nothing to reclaim. Space accounting used to accept this state
   ([free_pages > 0]) and let an internal allocator error escape to the
   host; the fixed predicate ([Ftl.writable]) must turn it into a typed
   [Device_full]. *)
let scattered_free_state () =
  let valid_run ~first ~count ~len =
    Array.init len (fun i -> if i < count then F.Valid (first + i) else F.Free)
  in
  F.For_testing.of_state ~config:small
    ~pages:
      [|
        valid_run ~first:0 ~count:8 ~len:8;
        valid_run ~first:8 ~count:8 ~len:8;
        valid_run ~first:16 ~count:3 ~len:8;
        valid_run ~first:19 ~count:2 ~len:8;
      |]
    ~write_point:None ()

let test_scattered_free_is_device_full () =
  let t = scattered_free_state () in
  check_true "free pages exist" (F.free_pages t > 0);
  check_false "but none are allocatable" (F.writable t);
  (match F.ensure_space t with
   | Error F.Device_full -> ()
   | Error e ->
     Alcotest.failf "ensure_space: wrong error: %s" (F.error_to_string e)
   | Ok () -> Alcotest.fail "ensure_space accepted an unwritable device");
  (* the host-facing write must surface the typed full condition, never an
     internal allocator error *)
  match F.write_in_place t ~lpn:0 with
  | Error F.Device_full -> ()
  | Error e ->
    Alcotest.failf "write: internal error escaped: %s" (F.error_to_string e)
  | Ok () -> Alcotest.fail "write succeeded with no allocatable page"

let test_scattered_free_recovers_after_trim () =
  (* trimming opens up Invalid pages; GC can then reclaim and the same
     device accepts writes again *)
  let t = scattered_free_state () in
  (* a whole block's worth of invalid pages in block 0 is reclaimable even
     though there is still no fully-free block: GC needs nothing to move
     once enough pages of the victim are dead *)
  for lpn = 0 to 7 do
    F.trim_in_place t ~lpn
  done;
  check_fok "write after trim" (F.write_in_place t ~lpn:0);
  check_ok "invariants" (F.check_invariants t)

let test_all_retired_wear_stats () =
  (* A fully-retired device: every block wore out at exactly the endurance
     limit, so the true minimum erase count is the limit. The old stats
     folded only over non-retired blocks and reported 0 — wildly wrong
     wear-spread on an end-of-life device. (Writes cannot reach this
     state: a write that ends in Device_full rolls back its last
     reclaiming erase, hence the snapshot constructor.) *)
  let limit = 2 in
  let cfg = { small with F.endurance_limit = limit } in
  let t =
    F.For_testing.of_state ~config:cfg
      ~erase_counts:(Array.make cfg.F.blocks limit)
      ~pages:
        (Array.init cfg.F.blocks (fun _ -> Array.make cfg.F.pages_per_block F.Free))
      ~write_point:None ()
  in
  let s = F.stats t in
  Alcotest.(check int) "all blocks retired" cfg.F.blocks s.F.retired_blocks;
  Alcotest.(check int) "min erase count is the endurance limit" limit
    s.F.min_erase_count;
  Alcotest.(check int) "max erase count is the endurance limit" limit
    s.F.max_erase_count;
  check_close ~tol:1e-12 "wear spread is flat" 0. (F.wear_spread t);
  check_false "retired free pages are not writable" (F.writable t);
  (match F.write_in_place t ~lpn:0 with
   | Error F.Device_full -> ()
   | Error e -> Alcotest.failf "wrong error: %s" (F.error_to_string e)
   | Ok () -> Alcotest.fail "write accepted on a fully-retired device");
  check_ok "invariants" (F.check_invariants t)

(* Two GC runs reclaim blocks 0 and 1, but each victim's erase retires it,
   and the write still finds no room: the write must be rejected with
   every GC run rolled back — counters, retirement, page map and journal
   exactly as before the call. *)
let test_device_full_rolls_back_gc () =
  let cfg = { small with F.endurance_limit = 2 } in
  let ppb = cfg.F.pages_per_block in
  let t =
    F.For_testing.of_state ~config:cfg
      ~erase_counts:(Array.make cfg.F.blocks 1)
      ~pages:
        (Array.init cfg.F.blocks (fun b ->
             Array.init ppb (fun p ->
                 if b < 2 then F.Invalid else F.Valid (((b - 2) * ppb) + p))))
      ~write_point:(Some (3, ppb)) ()
  in
  let mapping t = List.init (F.logical_capacity t) (fun lpn -> F.read t ~lpn) in
  let before = (F.stats t, mapping t, F.free_pages t, F.check_invariants t) in
  let columns = F.For_testing.columns t in
  (match F.write_in_place t ~lpn:16 with
   | Error F.Device_full -> ()
   | Error e -> Alcotest.failf "wrong error: %s" (F.error_to_string e)
   | Ok () -> Alcotest.fail "write accepted with every reclaimed block retired");
  check_true "stats, mapping and free pages restored"
    (before = (F.stats t, mapping t, F.free_pages t, F.check_invariants t));
  List.iter2
    (fun (name, was) (_, now) ->
      Alcotest.(check (array int)) (name ^ " restored") was now)
    columns (F.For_testing.columns t);
  check_true "journal empty" (F.take_journal t = []);
  Alcotest.(check int) "erase counts untouched" 4 (F.stats t).F.erases;
  Alcotest.(check int) "no block retired" 0 (F.stats t).F.retired_blocks

(* A corrupted state fails the self-check with the exact message of the
   first violation, formatted only then. *)
let test_invariant_messages () =
  let ppb = small.F.pages_per_block in
  let state ?erase_counts write_point =
    F.For_testing.of_state ~config:small ?erase_counts
      ~pages:(Array.init small.F.blocks (fun _ -> Array.make ppb F.Free))
      ~write_point ()
  in
  let expect msg t =
    Alcotest.(check (result unit string)) msg (Error msg) (F.check_invariants t)
  in
  expect "write point (0,9) out of range" (state (Some (0, ppb + 1)));
  expect "write point (7,0) out of range" (state (Some (7, 0)));
  expect "write point on retired block 1"
    (state
       ~erase_counts:(Array.init small.F.blocks (fun b -> if b = 1 then 1000 else 0))
       (Some (1, 0)));
  check_ok "a sane write point passes" (F.check_invariants (state (Some (1, 0))));
  (* 4 live blocks x 8 Free pages, every block fully free *)
  let totals ~free_total ~fully_free =
    let t = state None in
    F.For_testing.set_free_totals t ~free_total ~fully_free;
    t
  in
  expect "free page total 31 disagrees with page map (32)"
    (totals ~free_total:31 ~fully_free:4);
  expect "fully-free block total 3 disagrees with page map (4)"
    (totals ~free_total:32 ~fully_free:3)

(* [free_pages] and [fully_free_blocks], which the FTL keeps as running
   totals, against a recount of the page map, the retirement column and
   the write point. *)
let recounted_space t =
  let cols = F.For_testing.columns t in
  let pages = List.assoc "pages" cols and retired = List.assoc "retired" cols in
  let wp_block = (List.assoc "scalars" cols).(0) in
  let ppb = Array.length pages / Array.length retired in
  let free = ref 0 and fully_free = ref 0 in
  Array.iteri
    (fun b r ->
      if r = 0 then begin
        let n = ref 0 in
        for p = 0 to ppb - 1 do
          if pages.((b * ppb) + p) = -1 then incr n
        done;
        free := !free + !n;
        if !n = ppb && b <> wp_block then incr fully_free
      end)
    retired;
  (!free, !fully_free)

let space_as_recounted t = (F.free_pages t, F.fully_free_blocks t) = recounted_space t

(* The open block is fully free only in a state built out of policy (the
   allocator programs a page as soon as it opens one): it is headroom
   neither before nor after. *)
let test_fully_free_open_block () =
  let ppb = small.F.pages_per_block in
  let t =
    F.For_testing.of_state ~config:small
      ~pages:(Array.init small.F.blocks (fun _ -> Array.make ppb F.Free))
      ~write_point:(Some (2, 0)) ()
  in
  Alcotest.(check int) "open block is not headroom" 3 (F.fully_free_blocks t);
  Alcotest.(check int) "but its pages are free" 32 (F.free_pages t);
  check_fok "write" (F.write_in_place t ~lpn:0);
  Alcotest.(check int) "after a write into it" 3 (F.fully_free_blocks t);
  Alcotest.(check int) "one page fewer" 31 (F.free_pages t);
  check_ok "invariants" (F.check_invariants t)

(* Random out-of-policy starting states (pages Free, Invalid or Valid,
   some blocks retired, the write point anywhere, on a fully-free block
   too), then random writes and trims to retirement: after every step the
   two totals equal the recount. *)
let prop_space_totals_recounted =
  prop "free_pages and fully_free_blocks = page-map recount" ~count:60
    QCheck2.Gen.(
      let ppb = small.F.pages_per_block in
      quad
        (array_size (return small.F.blocks)
           (array_size (return ppb) (int_range 0 2)))
        (array_size (return small.F.blocks) (int_range 0 4))
        (opt (pair (int_range 0 (small.F.blocks - 1)) (int_range 0 ppb)))
        (int_range 0 100_000))
    (fun (kinds, wear, write_point, seed) ->
      let cfg = { small with F.endurance_limit = 4 } in
      (* a write point is on a live block, and its pages from the write
         point on are Free *)
      let write_point =
        Option.bind write_point (fun (b, p) -> if wear.(b) >= 4 then None else Some (b, p))
      in
      let lpns = ref 0 in
      let capacity = F.logical_capacity (F.create cfg) in
      let pages =
        Array.mapi
          (fun b ->
            Array.mapi (fun p k ->
                let ahead = match write_point with Some (w, q) -> w = b && p >= q | None -> false in
                if ahead || k = 0 || (k = 2 && !lpns >= capacity) then F.Free
                else if k = 1 then F.Invalid
                else begin
                  incr lpns;
                  F.Valid (!lpns - 1)
                end))
          kinds
      in
      let t = F.For_testing.of_state ~config:cfg ~erase_counts:wear ~pages ~write_point () in
      let ok = ref (space_as_recounted t) and step = ref 0 in
      while !ok && !step < 300 && (F.stats t).F.retired_blocks < cfg.F.blocks do
        let h = Sm.hash ~seed ~index:!step in
        let lpn = h mod capacity in
        (if (h lsr 32) mod 5 = 0 then F.trim_in_place t ~lpn
         else ignore (F.write_in_place t ~lpn : (unit, F.error) result));
        ok := space_as_recounted t;
        incr step
      done;
      !ok)

(* Native code only. A passing self-check formats no message: it
   allocates only its two iteration closures, however large the device. *)
let test_passing_check_allocation () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let t = F.create { small with F.blocks = 64; pages_per_block = 32 } in
  for lpn = 0 to 999 do
    check_fok "write" (F.write_in_place t ~lpn:(lpn mod 500))
  done;
  ignore (F.check_invariants t : (unit, string) result);
  let w0 = Gc.minor_words () in
  check_ok "invariants" (F.check_invariants t);
  check_true "under 32 minor words" (Gc.minor_words () -. w0 < 32.)

(* GC runs in place: relocating a victim copies no page map, so a GC-heavy
   rewrite loop allocates almost nothing directly on the major heap (a
   copied page map is 1024 + 840 words, past the minor-heap size limit). *)
let test_gc_does_not_allocate_major () =
  let t = F.create F.default_config in
  let capacity = F.logical_capacity t in
  let rewrite n =
    for i = 1 to n do
      check_fok "write" (F.write_in_place t ~lpn:(Sm.hash ~seed:11 ~index:i mod capacity));
      ignore (F.take_journal t : F.phys_op list)
    done
  in
  rewrite 5_000;
  let direct () =
    let s = Gc.quick_stat () in
    s.Gc.major_words -. s.Gc.promoted_words
  in
  let gc0 = (F.stats t).F.gc_runs and w0 = direct () in
  rewrite 20_000;
  let runs = (F.stats t).F.gc_runs - gc0 and words = direct () -. w0 in
  check_true "loop is GC-heavy" (runs > 1_000);
  check_true
    (Printf.sprintf "%.1f direct major words per GC run (< 100)"
       (words /. float_of_int runs))
    (words /. float_of_int runs < 100.)

(* ---- the in-place journal -------------------------------------------- *)

(* Journal entry [i] as a tuple [(block, page, lpn, flag)], read straight
   out of the live columns. *)
let view_entries t =
  let j = F.journal t in
  List.init j.F.length (fun i -> (j.F.block.(i), j.F.page.(i), j.F.lpn.(i), j.F.flag.(i)))

(* The same, for the list [take_journal] built. *)
let tuple_of_op = function
  | F.Phys_program { block; page; lpn; gc } -> (block, page, lpn, Bool.to_int gc)
  | F.Phys_erase { block; retired } -> (block, -1, -1, Bool.to_int retired)

(* Replays journal entries onto an empty logical-to-physical map: a
   program maps its lpn to its page, and an erase must find no lpn still
   mapped into its block (GC relocated them first). [None] when an erase
   hits a mapped page. *)
let replay_mapping ~capacity entries =
  let map = Array.make capacity None in
  let ok =
    List.for_all
      (fun (block, page, lpn, _) ->
        if page >= 0 then begin
          map.(lpn) <- Some (block, page);
          true
        end
        else Array.for_all (function Some (b, _) -> b <> block | None -> true) map)
      entries
  in
  if ok then Some map else None

(* A journal that outgrows its first capacity (two blocks' worth of
   entries) keeps every entry: replaying the undrained journal of
   hundreds of writes, GC relocations and erases included, rebuilds the
   device's mapping exactly, and the list [take_journal] builds is the
   same entries in the same order. *)
let test_journal_grows_keeping_entries () =
  let t = F.create small in
  let capacity = F.logical_capacity t in
  for i = 1 to 400 do
    check_fok "write" (F.write_in_place t ~lpn:(Sm.hash ~seed:5 ~index:i mod capacity))
  done;
  let s = F.stats t in
  let entries = view_entries t in
  Alcotest.(check int) "one entry per program and erase" (s.F.device_writes + s.F.erases)
    (List.length entries);
  check_true "past the first capacity" (List.length entries > 4 * small.F.pages_per_block);
  (match replay_mapping ~capacity entries with
   | None -> Alcotest.fail "an erase hit a mapped page"
   | Some map ->
     for lpn = 0 to capacity - 1 do
       check_true "replayed mapping" (map.(lpn) = F.read t ~lpn)
     done);
  check_true "take_journal agrees" (List.map tuple_of_op (F.take_journal t) = entries);
  Alcotest.(check int) "drained" 0 (F.journal t).F.length

(* A write rejected with [Device_full] after GC runs leaves a non-empty
   journal exactly as it was. Block 2 is all invalid and one erase from
   retirement, block 3 is open with one free page. The first write
   collects block 2 (retiring it) and lands in that page: two entries.
   Trims, which journal nothing, then invalidate blocks 0 and 1, also one
   erase from retirement. The second write collects both, which retires
   both, finds no room and rolls the two erases back out of the
   journal. *)
let test_rejected_write_keeps_journal () =
  let cfg = { small with F.endurance_limit = 2 } in
  let ppb = cfg.F.pages_per_block in
  let t =
    F.For_testing.of_state ~config:cfg
      ~erase_counts:(Array.make cfg.F.blocks 1)
      ~pages:
        (Array.init cfg.F.blocks (fun b ->
             Array.init ppb (fun p ->
                 match b with
                 | 0 | 1 -> F.Valid ((b * ppb) + p)
                 | 2 -> F.Invalid
                 | _ -> if p < 5 then F.Valid (16 + p) else if p < 7 then F.Invalid else F.Free)))
      ~write_point:(Some (3, ppb - 1)) ()
  in
  check_fok "first write" (F.write_in_place t ~lpn:0);
  for lpn = 1 to 15 do
    F.trim_in_place t ~lpn
  done;
  let before = view_entries t in
  check_true "an erase and a program journaled"
    (before = [ (2, -1, -1, 1); (3, ppb - 1, 0, 0) ]);
  (match F.write_in_place t ~lpn:16 with
   | Error F.Device_full -> ()
   | Error e -> Alcotest.failf "wrong error: %s" (F.error_to_string e)
   | Ok () -> Alcotest.fail "write accepted with every reclaimed block retired");
  check_true "journal as before the call" (view_entries t = before);
  check_true "take_journal agrees" (List.map tuple_of_op (F.take_journal t) = before);
  Alcotest.(check int) "no GC run kept" 1 (F.stats t).F.gc_runs

(* ---- properties ------------------------------------------------------ *)

let prop_mapping_consistent_after_random_trace =
  prop "every mapping points at a Valid page holding that lpn" ~count:20
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
       let t = F.create small in
       let capacity = F.logical_capacity t in
       let ops =
         W.generate ~seed W.Uniform ~pages:capacity ~strings:1 ~ops:200
           ~read_fraction:0.
       in
       match F.run_trace t ops with
       | Error _ -> false
       | Ok () ->
         let ok = ref true in
         for lpn = 0 to capacity - 1 do
           match F.read t ~lpn with
           | None -> ()
           | Some _ -> if F.read t ~lpn = None then ok := false
         done;
         !ok)

let prop_written_pages_stay_mapped =
  prop "a written lpn stays mapped through GC" ~count:20
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
       let t = F.create small in
       let capacity = F.logical_capacity t in
       let target = seed mod capacity in
       match F.write_in_place t ~lpn:target with
       | Error _ -> false
       | Ok () ->
         (* churn other pages hard enough to force GC *)
         let ops =
           W.generate ~seed:(seed + 1) W.Uniform ~pages:capacity ~strings:1
             ~ops:150 ~read_fraction:0.
         in
         (match F.run_trace t ops with
          | Error _ -> false
          | Ok () -> F.read t ~lpn:target <> None))

(* Drive a low-endurance device to exhaustion with random writes and trims.
   At every step: internal allocator errors never escape, the structural
   invariants hold, and space accounting agrees with the allocator —
   [ensure_space = Ok] implies the next write can be placed. *)
let prop_random_ops_to_exhaustion =
  prop "write/trim/GC to exhaustion keeps invariants and typed errors" ~count:15
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
       let cfg = { small with F.endurance_limit = 4 } in
       let t = F.create cfg in
       let capacity = F.logical_capacity t in
       let ok = ref true in
       let full = ref false in
       let step = ref 0 in
       while !ok && not !full && !step < 600 do
         let h = Sm.hash ~seed ~index:!step in
         let lpn = h mod capacity in
         let trim = Sm.hash ~seed:h ~index:1 mod 10 = 0 in
         (if trim then F.trim_in_place t ~lpn
          else
            match F.write_in_place t ~lpn with
            | Ok () -> ()
            | Error F.Device_full ->
              (* a full device must also say so via ensure_space *)
              (match F.ensure_space t with
               | Error F.Device_full -> ()
               | _ -> ok := false);
              full := true
            | Error _ -> ok := false);
         (match F.check_invariants t with Ok () -> () | Error _ -> ok := false);
         (match F.ensure_space t with
          | Ok () -> if not (F.writable t) then ok := false
          | Error F.Device_full -> ()
          | Error _ -> ok := false);
         incr step
       done;
       let s = F.stats t in
       !ok && s.F.device_writes >= s.F.host_writes)

(* Runs a random write/trim history (journal cleared now and then, as
   the service does after mirroring a write) until 20 writes were
   rejected or every block retired; true when every write rejected with
   [Device_full] left the columns, the stats and the journal exactly as
   before the call, and at least one was. *)
let rejections_leave_state ~cfg seed =
  let t = F.create cfg in
  let capacity = F.logical_capacity t in
  let ok = ref true and rejected = ref 0 and step = ref 0 in
  let snapshot () = (F.For_testing.columns t, F.stats t, view_entries t) in
  while !ok && !rejected < 20 && (F.stats t).F.retired_blocks < cfg.F.blocks do
    let h = Sm.hash ~seed ~index:!step in
    let lpn = h mod capacity in
    (match (h lsr 32) mod 10 with
     | 0 -> F.trim_in_place t ~lpn
     | 1 -> F.clear_journal t
     | _ -> (
       let before = snapshot () in
       match F.write_in_place t ~lpn with
       | Ok () -> ()
       | Error F.Device_full ->
         incr rejected;
         if snapshot () <> before then ok := false
       | Error _ -> ok := false));
    incr step
  done;
  !ok && !rejected > 0

(* At endurance limits 2-4 and GC thresholds 1-7, some calls start near
   the end of life (the rollback image taken) and some do not. *)
let prop_rejected_write_leaves_state =
  prop "a Device_full write leaves columns, stats and journal" ~count:40
    QCheck2.Gen.(triple (int_range 2 4) (int_range 1 7) (int_range 0 100_000))
    (fun (endurance_limit, gc_threshold, seed) ->
       rejections_leave_state ~cfg:{ small with F.endurance_limit; gc_threshold } seed)

(* The same at the default endurance limit, where the image is skipped
   until a block comes within [gc_threshold + 1] erases of it. *)
let prop_rejected_write_leaves_state_default_limit =
  prop "a Device_full write leaves the state, default endurance limit" ~count:2
    QCheck2.Gen.(int_range 0 100_000)
    (rejections_leave_state
       ~cfg:{ small with F.endurance_limit = F.default_config.F.endurance_limit })

let prop_journal_mirrors_counters =
  prop "drained journal agrees with the write counters" ~count:20
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
       let t = F.create small in
       let capacity = F.logical_capacity t in
       let rec go n =
         if n = 0 then Ok ()
         else
           match F.write_in_place t ~lpn:(Sm.hash ~seed ~index:n mod capacity) with
           | Ok () -> go (n - 1)
           | Error F.Device_full -> Ok ()
           | Error _ -> Error ()
       in
       match go 120 with
       | Error () -> false
       | Ok () ->
         let ops = F.take_journal t in
         let programs, gc_copies, erases =
           List.fold_left
             (fun (p, g, e) -> function
                | F.Phys_program { gc; _ } -> ((p + 1), (if gc then g + 1 else g), e)
                | F.Phys_erase _ -> (p, g, e + 1))
             (0, 0, 0) ops
         in
         let s = F.stats t in
         programs = s.F.device_writes
         && gc_copies = s.F.device_writes - s.F.host_writes
         && erases = s.F.erases)

(* Random writes and trims drive a low-endurance device into
   [Device_full], draining the journal at random points. Each time, the
   in-place view and [take_journal] agree entry by entry, the entries
   are well formed, and a rejected write leaves the view unchanged;
   the drained programs and erases add up to the device counters. *)
let prop_journal_view_matches_take =
  prop "in-place journal view = take_journal, to Device_full" ~count:15
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
       let t = F.create { small with F.endurance_limit = 4 } in
       let capacity = F.logical_capacity t in
       let ok = ref true and full = ref false and step = ref 0 in
       let programs = ref 0 and erases = ref 0 in
       let drain () =
         let view = view_entries t in
         let taken = List.map tuple_of_op (F.take_journal t) in
         if view <> taken then ok := false;
         List.iter
           (fun (_, page, lpn, flag) ->
             if flag land lnot 1 <> 0 then ok := false;
             if page >= 0 then incr programs
             else begin
               incr erases;
               if lpn <> -1 then ok := false
             end)
           view
       in
       while !ok && (not !full) && !step < 2_000 do
         let h = Sm.hash ~seed ~index:!step in
         let lpn = h mod capacity in
         (if Sm.hash ~seed:h ~index:1 mod 10 = 0 then F.trim_in_place t ~lpn
          else begin
            let before = view_entries t in
            match F.write_in_place t ~lpn with
            | Ok () -> ()
            | Error F.Device_full ->
              if view_entries t <> before then ok := false;
              full := true
            | Error _ -> ok := false
          end);
         if Sm.hash ~seed:h ~index:2 mod 3 = 0 then drain ();
         incr step
       done;
       drain ();
       let s = F.stats t in
       !ok && !full && !programs = s.F.device_writes && !erases = s.F.erases)

let () =
  Alcotest.run "ftl"
    [
      ( "ftl",
        [
          case "create" test_create;
          case "create validation" test_create_validation;
          case "write and read" test_write_and_read;
          case "out-of-place rewrite" test_rewrite_moves_page;
          case "lpn range" test_out_of_range;
          case "trim" test_trim;
          case "gc under pressure" test_gc_triggers_under_pressure;
          case "write amplification" test_write_amplification_bounds;
          case "wear leveling" test_wear_leveling_spread;
          case "sequential vs random" test_sequential_vs_random_wa;
          case "endurance retirement" test_endurance_retirement;
          case "scattered free space is Device_full" test_scattered_free_is_device_full;
          case "scattered free space recovers after trim" test_scattered_free_recovers_after_trim;
          case "all-retired wear stats" test_all_retired_wear_stats;
          case "Device_full rolls back GC" test_device_full_rolls_back_gc;
          case "GC allocates no major-heap words" test_gc_does_not_allocate_major;
          case "invariant violation messages" test_invariant_messages;
          case "a fully-free open block is not headroom" test_fully_free_open_block;
          case "passing invariant check allocation" test_passing_check_allocation;
          case "journal grows keeping every entry" test_journal_grows_keeping_entries;
          case "rejected write keeps the journal" test_rejected_write_keeps_journal;
          prop_mapping_consistent_after_random_trace;
          prop_written_pages_stay_mapped;
          prop_random_ops_to_exhaustion;
          prop_space_totals_recounted;
          prop_rejected_write_leaves_state;
          prop_rejected_write_leaves_state_default_limit;
          prop_journal_mirrors_counters;
          prop_journal_view_matches_take;
        ] );
    ]
