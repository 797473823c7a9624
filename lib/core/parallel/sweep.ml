(* Sweep engine front end. See sweep.mli for the execution model.

   Two tiers, both bit-identical to serial by construction:
   - serial: [jobs = 1], tiny inputs, or the auto-serial probe decision;
   - in-process: chunks of the index space pulled off [Pool]'s persistent
     domain pool (spawn cost amortized across every call in the process). *)

module Telemetry = Gnrflash_telemetry.Telemetry

let available_jobs () = Domain.recommended_domain_count ()

let default_jobs_cell = Atomic.make 1
let set_default_jobs n = Atomic.set default_jobs_cell (max 1 n)
let default_jobs () = Atomic.get default_jobs_cell

let splitmix = Gnrflash_prng.Splitmix.hash

let pool_spawned = Pool.spawned

let resolve_jobs = function
  | None -> default_jobs ()
  | Some j when j >= 1 -> j
  | Some _ -> invalid_arg "Sweep: jobs < 1"

(* Fixed chunk size, used only when the probe is disabled
   ([serial_cutoff <= 0]). *)
let fixed_chunk ~jobs ~n = max 1 (n / (8 * jobs))

(* Auto-tuned chunk size: big enough that one chunk claim carries
   [target_chunk_seconds] of work (so the atomic-queue traffic and cache
   ping-pong are negligible against the work itself), but never so big
   that fewer than ~2 chunks per domain remain to load-balance with. *)
let target_chunk_seconds = 1e-3

let auto_chunk ~per_element_s ~n ~jobs =
  let per = Float.max per_element_s 1e-9 in
  let by_cost = int_of_float (Float.ceil (target_chunk_seconds /. per)) in
  let by_balance = max 1 ((n + (2 * jobs) - 1) / (2 * jobs)) in
  max 1 (min by_cost by_balance)

(* Run [work] over chunk indices [0 .. nchunks-1]; the calling domain
   participates, so up to [jobs - 1] pool domains assist. *)
let run_pool ~jobs ~nchunks work = Pool.run ~helpers:(jobs - 1) ~nchunks work

let default_serial_cutoff = 5e-3

(* The pool path over indices [0 .. n-1] of [f]; [pre] returns probed
   results so no element is evaluated twice. *)
let run_chunked ~jobs ~chunk ~n ~pre f =
  let nchunks = (n + chunk - 1) / chunk in
  let out = Array.make nchunks [||] in
  run_pool ~jobs:(min jobs nchunks) ~nchunks (fun ci ->
      let lo = ci * chunk in
      let len = min chunk (n - lo) in
      out.(ci) <-
        Array.init len (fun k ->
            let i = lo + k in
            match pre i with Some y -> y | None -> f i));
  Array.concat (Array.to_list out)

(* Auto-serial heuristic (probe-first): spawning is amortized by the pool,
   but waking it and paying the chunk-queue traffic still costs ~the
   [serial_cutoff]; a tiny grid of cheap closed-form evaluations finishes
   faster serially. Elements 0 and 1 are evaluated serially as probes and
   the *minimum* of the two per-element times extrapolates the whole-sweep
   cost — the minimum, because a first-call artifact (surrogate table
   build, WKB cache fill) inflates one probe and must not misroute every
   later medium-sized grid. Probed results are reused either way — no
   element is evaluated twice — and both paths apply the same pure
   function to the same inputs in input order, so the decision never
   changes the output. *)
let mapi ?jobs ?(serial_cutoff = default_serial_cutoff) f xs =
  let jobs = resolve_jobs jobs and n = Array.length xs in
  let f i = f i xs.(i) in
  if jobs = 1 || n <= 1 then Array.init n f
  else if serial_cutoff <= 0. then begin
    (* heuristic disabled: the pure pool path, no probe *)
    run_chunked ~jobs ~chunk:(fixed_chunk ~jobs ~n) ~n ~pre:(fun _ -> None) f
  end
  else begin
    let probe i =
      (* the probe time only picks the chunk size; the element values y
         are what the sweep returns, and those are computed identically
         for any chunking *)
      let t0 = Unix.gettimeofday () in
      let y = f i in
      (y, Unix.gettimeofday () -. t0)
    in
    let y0, p0 = probe 0 in
    let y1, p1 = probe 1 in
    let per = Float.min p0 p1 in
    if per *. float_of_int n <= serial_cutoff then begin
      Telemetry.count "sweep/auto_serial";
      Array.init n (fun i -> if i = 0 then y0 else if i = 1 then y1 else f i)
    end
    else if n = 2 then [| y0; y1 |]
    else begin
      run_chunked ~jobs ~chunk:(auto_chunk ~per_element_s:per ~n ~jobs) ~n
        ~pre:(fun i -> if i = 0 then Some y0 else if i = 1 then Some y1 else None)
        f
    end
  end

let map ?jobs ?serial_cutoff f xs =
  mapi ?jobs ?serial_cutoff (fun _ x -> f x) xs

let init ?jobs ?serial_cutoff n f =
  if n < 0 then invalid_arg "Sweep.init: n < 0";
  mapi ?jobs ?serial_cutoff (fun i () -> f i) (Array.make n ())

let map_list ?jobs ?serial_cutoff f xs =
  Array.to_list (map ?jobs ?serial_cutoff f (Array.of_list xs))

let grid ?jobs ?serial_cutoff f ~outer ~inner =
  let no = Array.length outer and ni = Array.length inner in
  if no = 0 || ni = 0 then Array.make no [||]
  else begin
    let flat =
      init ?jobs ?serial_cutoff (no * ni)
        (fun k -> f outer.(k / ni) inner.(k mod ni))
    in
    Array.init no (fun i -> Array.sub flat (i * ni) ni)
  end
