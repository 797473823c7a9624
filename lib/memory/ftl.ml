[@@@gnrflash.hot]
(* lint: the journal appends and the GC/allocator loops run on every
   served write — L13 keeps closures and record updates out of them. *)

type page_state =
  | Free
  | Valid of int
  | Invalid

type config = {
  blocks : int;
  pages_per_block : int;
  gc_threshold : int;
  endurance_limit : int;
}

type error =
  | Out_of_range of int
  | Device_full

let error_to_string = function
  | Out_of_range lpn -> Printf.sprintf "Ftl: lpn %d out of range" lpn
  | Device_full -> "Ftl: device full"

(* Physical operations, journaled in the order the device would see them so
   a command-level front end (Service) can mirror the op stream. *)
type phys_op =
  | Phys_program of { block : int; page : int; lpn : int; gc : bool }
  | Phys_erase of { block : int; retired : bool }

(* The journal as it is held: append-only int columns (see the .mli). *)
type journal = {
  mutable length : int;
  mutable block : int array;
  mutable page : int array;
  mutable lpn : int array;
  mutable flag : int array;
}

(* Flat hot-path representation. The page map is one int array indexed by
   [block * pages_per_block + page] holding the resident lpn, [p_free] or
   [p_invalid]; the logical map holds the flat physical location or
   [unmapped]. Per-block Free/Invalid populations are maintained
   incrementally so allocation and GC-victim selection are O(blocks)
   instead of O(blocks * pages_per_block) scans with polymorphic
   equality, and the device-wide free-page and fully-free-block totals
   are kept beside them, so the space check every write makes is O(1).

   One mutable handle, updated in place. The only copy of the state is
   [undo], preallocated at [create] and filled only when a write is about
   to garbage-collect near the end of life (see [ensure_space]), so a
   write that ends in [Device_full] can roll every GC run it made back. *)

let p_free = -1
let p_invalid = -2
let unmapped = -1

type t = {
  config : config;
  pages : int array; (* [block * ppb + page] -> lpn | p_free | p_invalid *)
  mapping : int array; (* lpn -> flat physical location | unmapped *)
  erase_counts : int array;
  retired : bool array;
  free_cnt : int array; (* per-block Free pages, maintained incrementally *)
  invalid_cnt : int array; (* per-block Invalid pages, ditto *)
  mutable free_total : int; (* Free pages over live blocks *)
  mutable fully_free : int; (* live blocks with every page Free, open one included *)
  mutable wp_block : int; (* open block, -1 when none *)
  mutable wp_page : int; (* next page in the open block; may equal ppb *)
  mutable host_writes : int;
  mutable device_writes : int;
  mutable gc_runs : int;
  mutable erases : int;
  journal : journal;
  undo : t option; (* rollback image; [None] on the image itself *)
}

let default_config =
  { blocks = 16; pages_per_block = 64; gc_threshold = 8; endurance_limit = 10_000 }

(* One whole block is reserved so garbage collection always has a landing
   zone for a victim's valid pages, plus 1/8 page-level over-provisioning
   to keep the GC off the hot path. *)
let logical_capacity_of config = (config.blocks - 1) * config.pages_per_block * 7 / 8

let journal_create capacity =
  {
    length = 0;
    block = Array.make capacity 0;
    page = Array.make capacity 0;
    lpn = Array.make capacity 0;
    flag = Array.make capacity 0;
  }

let rec fresh config ~undo =
  {
    config;
    pages = Array.make (config.blocks * config.pages_per_block) p_free;
    mapping = Array.make (logical_capacity_of config) unmapped;
    erase_counts = Array.make config.blocks 0;
    retired = Array.make config.blocks false;
    free_cnt = Array.make config.blocks config.pages_per_block;
    invalid_cnt = Array.make config.blocks 0;
    free_total = config.blocks * config.pages_per_block;
    fully_free = config.blocks;
    wp_block = -1;
    wp_page = 0;
    host_writes = 0;
    device_writes = 0;
    gc_runs = 0;
    erases = 0;
    (* room for a host write after one GC run (at most [ppb - 1]
       relocations and an erase) before the columns first grow; the
       image keeps only a length *)
    journal = journal_create (if undo then config.pages_per_block + 1 else 0);
    undo = (if undo then Some (fresh config ~undo:false) else None);
  }

let create config =
  if config.blocks < 2 || config.pages_per_block < 1 then
    invalid_arg "Ftl.create: need >= 2 blocks and >= 1 page";
  if config.gc_threshold < 1 || config.gc_threshold >= config.blocks * config.pages_per_block / 4
  then invalid_arg "Ftl.create: unreasonable gc threshold";
  fresh config ~undo:true

let logical_capacity t = Array.length t.mapping

let free_pages t = t.free_total

(* Pick the block with the lowest erase count among blocks that are fully
   free (candidates to open for writing); earliest block wins erase-count
   ties. Returns -1 when none qualifies. *)
let pick_open_block t =
  let best = ref (-1) in
  for b = 0 to t.config.blocks - 1 do
    if
      (not t.retired.(b))
      && t.free_cnt.(b) = t.config.pages_per_block
      && (!best < 0 || t.erase_counts.(b) < t.erase_counts.(!best))
    then best := b
  done;
  !best

(* Fully-free blocks not currently open for writing — the GC headroom. *)
let fully_free_blocks t =
  let b = t.wp_block in
  if b >= 0 && (not t.retired.(b)) && t.free_cnt.(b) = t.config.pages_per_block then
    t.fully_free - 1
  else t.fully_free

let open_room t =
  if t.wp_block >= 0 then t.config.pages_per_block - t.wp_page else 0

(* Exactly the condition under which the allocator can program a page:
   either the open block still has room, or a fully-free block exists to
   open. Free pages scattered across partially-written non-open blocks do
   NOT count — the allocator cannot consume them. *)
let writable t = open_room t > 0 || pick_open_block t >= 0

(* Ensure the write point can take one page, opening a block if needed;
   [false] when no block is left to open. *)
let allocate t =
  open_room t > 0
  ||
  match pick_open_block t with
  | -1 -> false
  | b ->
    t.wp_block <- b;
    t.wp_page <- 0;
    true

(* Columns grow rarely (a warm journal never does), so a plain blit. *)
let grown col =
  let bigger = Array.make (max 1 (2 * Array.length col)) 0 in
  Array.blit col 0 bigger 0 (Array.length col);
  bigger

let journal_push j ~block ~page ~lpn ~flag =
  let n = j.length in
  if n = Array.length j.block then begin
    j.block <- grown j.block;
    j.page <- grown j.page;
    j.lpn <- grown j.lpn;
    j.flag <- grown j.flag
  end;
  j.block.(n) <- block;
  j.page.(n) <- page;
  j.lpn.(n) <- lpn;
  j.flag.(n) <- flag;
  j.length <- n + 1

let program_page t ~lpn ~gc =
  allocate t
  && begin
    let ppb = t.config.pages_per_block in
    let b = t.wp_block and p = t.wp_page in
    t.pages.((b * ppb) + p) <- lpn;
    if t.free_cnt.(b) = ppb then t.fully_free <- t.fully_free - 1;
    t.free_cnt.(b) <- t.free_cnt.(b) - 1;
    t.free_total <- t.free_total - 1;
    (* invalidate the previous location *)
    let old = t.mapping.(lpn) in
    if old >= 0 then begin
      t.pages.(old) <- p_invalid;
      t.invalid_cnt.(old / ppb) <- t.invalid_cnt.(old / ppb) + 1
    end;
    t.mapping.(lpn) <- (b * ppb) + p;
    t.wp_page <- p + 1;
    t.device_writes <- t.device_writes + 1;
    journal_push t.journal ~block:b ~page:p ~lpn ~flag:(Bool.to_int gc);
    true
  end

(* Greedy victim selection: most invalid pages; ties broken toward higher
   erase count being avoided (wear leveling). Never the open block.
   Returns -1 when nothing is collectable. *)
let pick_victim t =
  let best = ref (-1) and best_invalid = ref 0 and best_erases = ref 0 in
  for b = 0 to t.config.blocks - 1 do
    if (not t.retired.(b)) && b <> t.wp_block then begin
      let invalid = t.invalid_cnt.(b) in
      if
        invalid > 0
        && not
             (!best >= 0
             && (!best_invalid > invalid
                || (!best_invalid = invalid && !best_erases <= t.erase_counts.(b))
                ))
      then begin
        best := b;
        best_invalid := invalid;
        best_erases := t.erase_counts.(b)
      end
    end
  done;
  !best

(* [b] is a GC victim: live, and not fully free (it holds an Invalid
   page), so its erase adds one fully-free block unless it retires it. *)
let erase_block t b =
  let ppb = t.config.pages_per_block in
  let was_free = t.free_cnt.(b) in
  Array.fill t.pages (b * ppb) ppb p_free;
  t.free_cnt.(b) <- ppb;
  t.invalid_cnt.(b) <- 0;
  t.erase_counts.(b) <- t.erase_counts.(b) + 1;
  if t.erase_counts.(b) >= t.config.endurance_limit then begin
    (* a retired block leaves both totals *)
    t.retired.(b) <- true;
    t.free_total <- t.free_total - was_free
  end
  else begin
    t.free_total <- t.free_total + (ppb - was_free);
    t.fully_free <- t.fully_free + 1
  end;
  t.erases <- t.erases + 1;
  if t.wp_block = b then begin
    t.wp_block <- -1;
    t.wp_page <- 0
  end;
  journal_push t.journal ~block:b ~page:(-1) ~lpn:(-1)
    ~flag:(Bool.to_int t.retired.(b))

(* Relocate the victim's valid pages through the write point and erase it.
   Nothing is touched unless they all fit — in the open block's remainder
   and the fully-free blocks the allocator will open next — so a run
   either completes or leaves [t] as it was. [false] when there is no
   victim or it does not fit. *)
let garbage_collect t =
  let victim = pick_victim t in
  let ppb = t.config.pages_per_block in
  victim >= 0
  && ppb - t.free_cnt.(victim) - t.invalid_cnt.(victim)
     <= open_room t + (ppb * fully_free_blocks t)
  && begin
    let base = victim * ppb in
    for p = 0 to ppb - 1 do
      let s = t.pages.(base + p) in
      if s >= 0 then ignore (program_page t ~lpn:s ~gc:true : bool)
    done;
    erase_block t victim;
    t.gc_runs <- t.gc_runs + 1;
    true
  end

(* A typed int loop: [Array.blit] on a major-heap array runs the write
   barrier once per element, which immediate ints do not need. *)
let copy_ints (src : int array) (dst : int array) =
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- src.(i)
  done

let overwrite dst src =
  copy_ints src.pages dst.pages;
  copy_ints src.mapping dst.mapping;
  copy_ints src.erase_counts dst.erase_counts;
  Array.blit src.retired 0 dst.retired 0 (Array.length dst.retired);
  copy_ints src.free_cnt dst.free_cnt;
  copy_ints src.invalid_cnt dst.invalid_cnt;
  dst.free_total <- src.free_total;
  dst.fully_free <- src.fully_free;
  dst.wp_block <- src.wp_block;
  dst.wp_page <- src.wp_page;
  dst.host_writes <- src.host_writes;
  dst.device_writes <- src.device_writes;
  dst.gc_runs <- src.gc_runs;
  dst.erases <- src.erases;
  (* entries are only ever appended, so the length is the whole journal
     state a rollback needs *)
  dst.journal.length <- src.journal.length

let needs_gc t = fully_free_blocks t < 1 || free_pages t <= t.config.gc_threshold

(* Some live block is within [gc_threshold + 1] erases of retirement. *)
let near_end_of_life t =
  let horizon = t.config.endurance_limit - t.config.gc_threshold - 1 and near = ref false in
  for b = 0 to t.config.blocks - 1 do
    near := !near || ((not t.retired.(b)) && t.erase_counts.(b) >= horizon)
  done;
  !near

(* Maintain the invariant that a spare fully-free block exists before
   accepting a host write (plus the configured free-page low-water mark),
   or accept the state as-is when nothing more is reclaimable but the
   allocator still has room. On [Device_full] every GC run of this call
   is rolled back from the undo image.

   The image is filled only near the end of life, because only a GC run
   that retires its victim can end a call in [Device_full]:
   - A run that does not retire its victim leaves it fully free (it is
     not the open block), and a failed [garbage_collect] touches nothing,
     so the call ends [writable]. A call with no run changed nothing.
   - Such a run frees the victim's invalid pages, at least one, so the
     free pages grow. After it a fully-free block exists, so the loop
     goes on only while [free_pages <= gc_threshold]: without retirement
     a call makes at most [gc_threshold + 1] runs, so it cannot retire a
     block with fewer than [endurance_limit - gc_threshold - 1] erases. *)
let ensure_space t =
  if not (needs_gc t) then Ok ()
  else begin
    let undo = if near_end_of_life t then t.undo else None in
    (match undo with Some u -> overwrite u t | None -> ());
    while needs_gc t && garbage_collect t do
      ()
    done;
    (* free pages stranded in partially-written, non-open blocks are
       unusable until their block is collected, so [free_pages t > 0]
       alone is NOT sufficient here *)
    if writable t then Ok ()
    else begin
      (match undo with Some u -> overwrite t u | None -> ());
      Error Device_full
    end
  end

let write_in_place t ~lpn =
  if lpn < 0 || lpn >= logical_capacity t then Error (Out_of_range lpn)
  else
    match ensure_space t with
    | Error e -> Error e
    | Ok () ->
      (* [ensure_space] left the allocator room, so the page lands *)
      ignore (program_page t ~lpn ~gc:false : bool);
      t.host_writes <- t.host_writes + 1;
      Ok ()

let trim_in_place t ~lpn =
  if lpn >= 0 && lpn < logical_capacity t then begin
    let loc = t.mapping.(lpn) in
    if loc >= 0 then begin
      t.pages.(loc) <- p_invalid;
      t.invalid_cnt.(loc / t.config.pages_per_block) <-
        t.invalid_cnt.(loc / t.config.pages_per_block) + 1;
      t.mapping.(lpn) <- unmapped
    end
  end

let journal t = t.journal
let clear_journal t = t.journal.length <- 0

let take_journal t =
  let j = t.journal in
  let ops = ref [] in
  for i = j.length - 1 downto 0 do
    let op =
      if j.page.(i) < 0 then Phys_erase { block = j.block.(i); retired = j.flag.(i) = 1 }
      else
        Phys_program
          { block = j.block.(i); page = j.page.(i); lpn = j.lpn.(i); gc = j.flag.(i) = 1 }
    in
    ops := op :: !ops
  done;
  j.length <- 0;
  !ops

let location t ~lpn =
  if lpn < 0 || lpn >= logical_capacity t then unmapped else t.mapping.(lpn)

let read t ~lpn =
  let loc = location t ~lpn in
  if loc < 0 then None
  else Some (loc / t.config.pages_per_block, loc mod t.config.pages_per_block)

type stats = {
  host_writes : int;
  device_writes : int;
  gc_runs : int;
  erases : int;
  retired_blocks : int;
  write_amplification : float;
  max_erase_count : int;
  min_erase_count : int;
}

let stats t =
  let retired_blocks = Array.fold_left (fun n r -> if r then n + 1 else n) 0 t.retired in
  (* Minimum over ALL blocks: a retired block carries exactly
     endurance_limit erases, which never undercuts a live block, and on a
     fully-retired device the true minimum is the endurance limit — not 0,
     which would make wear_spread read as max_erase_count on a dead
     device. *)
  let max_e = ref 0 and min_e = ref max_int in
  Array.iter
    (fun e ->
       max_e := max !max_e e;
       min_e := min !min_e e)
    t.erase_counts;
  {
    host_writes = t.host_writes;
    device_writes = t.device_writes;
    gc_runs = t.gc_runs;
    erases = t.erases;
    retired_blocks;
    write_amplification =
      (if t.host_writes = 0 then 1.
       else float_of_int t.device_writes /. float_of_int t.host_writes);
    max_erase_count = !max_e;
    min_erase_count = (if !min_e = max_int then 0 else !min_e);
  }

let wear_spread t =
  let s = stats t in
  float_of_int (s.max_erase_count - s.min_erase_count)

exception Violation of string

let check_invariants t =
  let ppb = t.config.pages_per_block in
  (* the message is formatted only when a check fails, so a passing
     check allocates nothing *)
  let fail fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt in
  try
    (* mapping -> pages *)
    Array.iteri
      (fun lpn loc ->
         if loc <> unmapped then begin
           if not (loc >= 0 && loc < t.config.blocks * ppb) then
             fail "lpn %d maps to out-of-range (%d,%d)" lpn (loc / ppb) (loc mod ppb);
           if t.pages.(loc) <> lpn then
             fail "lpn %d maps to (%d,%d) which does not hold it" lpn (loc / ppb)
               (loc mod ppb)
         end)
      t.mapping;
    (* pages -> mapping: no aliasing, every Valid page is the mapped one *)
    Array.iteri
      (fun loc s ->
         if s >= 0 then begin
           let b = loc / ppb and p = loc mod ppb in
           if s >= Array.length t.mapping then
             fail "page (%d,%d) holds out-of-range lpn %d" b p s;
           if t.mapping.(s) <> loc then
             fail "page (%d,%d) holds lpn %d but mapping disagrees" b p s
         end)
      t.pages;
    (* the incremental per-block populations and the device totals agree
       with the page map *)
    let free_total = ref 0 and fully_free = ref 0 in
    for b = 0 to t.config.blocks - 1 do
      let free = ref 0 and invalid = ref 0 in
      for p = 0 to ppb - 1 do
        let s = t.pages.((b * ppb) + p) in
        if s = p_free then incr free else if s = p_invalid then incr invalid
      done;
      if t.free_cnt.(b) <> !free then
        fail "block %d free count %d disagrees with page map (%d)" b t.free_cnt.(b)
          !free;
      if t.invalid_cnt.(b) <> !invalid then
        fail "block %d invalid count %d disagrees with page map (%d)" b
          t.invalid_cnt.(b) !invalid;
      if not t.retired.(b) then begin
        free_total := !free_total + !free;
        if !free = ppb then incr fully_free
      end
    done;
    if t.free_total <> !free_total then
      fail "free page total %d disagrees with page map (%d)" t.free_total !free_total;
    if t.fully_free <> !fully_free then
      fail "fully-free block total %d disagrees with page map (%d)" t.fully_free
        !fully_free;
    (* write point sanity *)
    if t.wp_block >= 0 then begin
      if not (t.wp_block < t.config.blocks && t.wp_page >= 0 && t.wp_page <= ppb)
      then fail "write point (%d,%d) out of range" t.wp_block t.wp_page;
      if t.retired.(t.wp_block) then
        fail "write point on retired block %d" t.wp_block
    end;
    (* counters *)
    if t.device_writes < t.host_writes then
      fail "device_writes %d < host_writes %d" t.device_writes t.host_writes;
    if t.erases <> Array.fold_left ( + ) 0 t.erase_counts then
      fail "erases counter %d disagrees with per-block erase counts" t.erases;
    Ok ()
  with Violation s -> Error s

let run_trace t ops =
  let capacity = logical_capacity t in
  let rec go = function
    | [] -> Ok ()
    | Workload.Read _ :: rest -> go rest
    | Workload.Write { page; _ } :: rest -> (
      match write_in_place t ~lpn:(page mod capacity) with
      | Ok () -> go rest
      | Error e -> Error e)
  in
  go ops

module For_testing = struct
  let of_state ~config:cfg ?erase_counts ~pages ~write_point () =
    if Array.length pages <> cfg.blocks
       || Array.exists (fun row -> Array.length row <> cfg.pages_per_block) pages
    then invalid_arg "Ftl.For_testing.of_state: page map dimensions";
    let erase_counts =
      match erase_counts with
      | None -> Array.make cfg.blocks 0
      | Some ec ->
        if Array.length ec <> cfg.blocks || Array.exists (fun c -> c < 0) ec
        then invalid_arg "Ftl.For_testing.of_state: erase counts";
        Array.copy ec
    in
    let t = create cfg in
    Array.blit erase_counts 0 t.erase_counts 0 cfg.blocks;
    for b = 0 to cfg.blocks - 1 do
      t.retired.(b) <- erase_counts.(b) >= cfg.endurance_limit
    done;
    t.erases <- Array.fold_left ( + ) 0 erase_counts;
    (match write_point with
     | None -> ()
     | Some (b, p) ->
       t.wp_block <- b;
       t.wp_page <- p);
    let ppb = cfg.pages_per_block in
    Array.iteri
      (fun b row ->
         Array.iteri
           (fun p s ->
              let loc = (b * ppb) + p in
              match s with
              | Free -> ()
              | Invalid ->
                t.pages.(loc) <- p_invalid;
                t.free_cnt.(b) <- t.free_cnt.(b) - 1;
                t.invalid_cnt.(b) <- t.invalid_cnt.(b) + 1
              | Valid lpn ->
                if lpn < 0 || lpn >= Array.length t.mapping then
                  invalid_arg "Ftl.For_testing.of_state: lpn out of range";
                if t.mapping.(lpn) <> unmapped then
                  invalid_arg "Ftl.For_testing.of_state: duplicate lpn";
                t.pages.(loc) <- lpn;
                t.free_cnt.(b) <- t.free_cnt.(b) - 1;
                t.mapping.(lpn) <- loc)
           row)
      pages;
    t.free_total <- 0;
    t.fully_free <- 0;
    for b = 0 to cfg.blocks - 1 do
      if not t.retired.(b) then begin
        t.free_total <- t.free_total + t.free_cnt.(b);
        if t.free_cnt.(b) = ppb then t.fully_free <- t.fully_free + 1
      end
    done;
    t

  let set_free_totals t ~free_total ~fully_free =
    t.free_total <- free_total;
    t.fully_free <- fully_free

  let columns t =
    [
      ("pages", Array.copy t.pages);
      ("mapping", Array.copy t.mapping);
      ("erase_counts", Array.copy t.erase_counts);
      ("retired", Array.map Bool.to_int t.retired);
      ("free_cnt", Array.copy t.free_cnt);
      ("invalid_cnt", Array.copy t.invalid_cnt);
      ( "scalars",
        [|
          t.wp_block; t.wp_page; t.host_writes; t.device_writes; t.gc_runs; t.erases;
          t.free_total; t.fully_free;
        |] );
    ]
end
