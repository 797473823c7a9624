(** Parallel sweep engine for the dense parameter grids of the
    reproduction: the Fig 6–9 [(VGS, GCR)] / [(VGS, XTO)] J–V grids, the
    Monte-Carlo {!Gnrflash_device.Variation} ensembles, and the
    retention/disturb/array sweeps.

    Execution model, in two tiers:
    - {b serial} — [~jobs:1] (the default unless {!set_default_jobs} was
      called), tiny inputs, or the auto-serial probe decision; never
      touches a domain.
    - {b in-process} — [jobs] domains (the calling domain participates as
      one of them) pull chunks of the index space off a shared atomic
      queue: cheap work stealing, so an expensive region of the sweep
      (e.g. slow transient solves near a threshold) does not leave the
      other domains idle. The [jobs - 1] helper domains come from a
      lazily created {e process-lifetime pool} ({!Pool}) — spawn cost is
      paid once per process, not per call — and chunk size is auto-tuned
      from the probe (see below) so each chunk claim carries
      {!target_chunk_seconds} of work.

    Results are assembled in input order whatever the tier, so the output
    is {e bit-identical} to the serial path regardless of [jobs], chunk
    size, or scheduling.

    Telemetry: pool workers adopt the submitting domain's span context
    ({!Gnrflash_telemetry.Telemetry.with_context_prefix}) and flush their
    domain-local sinks into the global accumulator {e once per sweep}
    (not per chunk). Counter totals — and the keys they are recorded
    under — match a serial run exactly. Span [total_s] sums the time spent
    in {e all} domains (CPU-time-like, may exceed wall clock).

    Exceptions raised by the mapped function are caught in the worker,
    the sweep drains, and the first one observed is re-raised in the
    caller. *)

val available_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — what the hardware supports. *)

val set_default_jobs : int -> unit
(** Set the job count used when [?jobs] is omitted (clamped to [>= 1]).
    Wired to the CLI [--jobs] flag. *)

val default_jobs : unit -> int
(** Current default job count; [1] (serial) unless {!set_default_jobs}
    was called. *)

val splitmix : seed:int -> index:int -> int
(** A non-negative 62-bit hash of [(seed, index)] (splitmix64 finalizer,
    re-exported from {!Gnrflash_prng.Splitmix}). Use as the per-element
    PRNG seed of a randomized sweep so every element draws an independent
    stream: the result depends only on [(seed, index)], never on
    chunking or job count, which is what makes e.g.
    [Variation.sample_devices] reproducible across [--jobs] settings. *)

val default_serial_cutoff : float
(** Default [serial_cutoff]: 5 ms — roughly the cost of waking the pool
    and paying the chunk-queue traffic, below which parallelism can only
    lose. *)

val target_chunk_seconds : float
(** Auto-chunking target: 1 ms of estimated work per chunk claim. *)

val auto_chunk : per_element_s:float -> n:int -> jobs:int -> int
(** The chunk size the probe-first path picks: large enough that one
    chunk carries {!target_chunk_seconds} of estimated work, capped so at
    least ~2 chunks per domain remain for load balancing, floored at 1.
    Exposed for tests and capacity planning. *)

val pool_spawned : unit -> int
(** Total pool domains spawned in this process — the bench's
    parallel-overhead budget: the delta across any one sweep must be
    [<= jobs]. *)

val map :
  ?jobs:int -> ?serial_cutoff:float -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f xs] is [Array.map f xs] evaluated on [jobs] domains.

    The work-queue granularity is {!auto_chunk}'s choice from the probe;
    with the probe disabled it is the fixed [max 1 (n / (8*jobs))].

    [serial_cutoff] (seconds, default {!default_serial_cutoff}) is the
    auto-serial heuristic: when a parallel run is requested, elements 0
    and 1 are evaluated first as serial probes, and if the extrapolated
    whole-sweep cost [min(probe0, probe1) * n] fits within the cutoff the
    remaining elements run serially too (counted as [sweep/auto_serial])
    — a tiny grid of cheap evaluations finishes before the pool would
    even wake. The minimum of two probes keeps a first-call artifact
    (surrogate table build, WKB cache fill) from inflating the estimate.
    Probed results are reused in both paths (no element is evaluated
    twice), and since both paths apply the same pure function to the same
    inputs in input order, the decision never changes the result: output
    stays bit-identical across [jobs], chunking, and the heuristic. Pass [~serial_cutoff:0.] to disable the probe and force
    the pool path.

    @raise Invalid_argument if [jobs < 1]. *)

val mapi :
  ?jobs:int -> ?serial_cutoff:float ->
  (int -> 'a -> 'b) -> 'a array -> 'b array
(** Indexed {!map}. *)

val init :
  ?jobs:int -> ?serial_cutoff:float -> int -> (int -> 'a) -> 'a array
(** [init ~jobs n f] is [Array.init n f] evaluated on [jobs] domains.
    @raise Invalid_argument if [n < 0]. *)

val map_list :
  ?jobs:int -> ?serial_cutoff:float -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} over a list, preserving order. *)

val grid :
  ?jobs:int -> ?serial_cutoff:float ->
  ('a -> 'b -> 'c) -> outer:'a array -> inner:'b array -> 'c array array
(** [grid f ~outer ~inner] evaluates the full Cartesian product as one
    flat work queue — [(grid f ~outer ~inner).(i).(j) = f outer.(i)
    inner.(j)] — so load balances across the whole surface rather than
    row by row. The auto-serial probe (see {!map}) extrapolates from the
    flattened size. *)
