(** Process-lifetime domain pool behind {!Sweep}.

    Domains are spawned lazily on the first parallel submission and reused
    by every later one, amortizing the ~1 ms-per-domain spawn cost that
    made per-call spawning slower than serial on small work items. The
    pool grows to the largest [helpers] ever requested (capped) and is
    joined by an [at_exit] hook. It is the sweeps' only scale-out path. *)

val run : helpers:int -> nchunks:int -> (int -> unit) -> unit
(** [run ~helpers ~nchunks work] evaluates [work ci] for every chunk index
    [ci] in [0 .. nchunks-1], pulled off a shared atomic queue by the
    calling domain plus up to [helpers] pool domains. Workers adopt the
    caller's telemetry context and flush their domain-local sinks once per
    task, after draining. The first exception raised by [work] parks, the
    task drains, and it is re-raised in the caller. A nested or concurrent
    [run] (the pool is busy) degrades to a serial loop over the chunks —
    bit-identical output, no deadlock. *)

val spawned : unit -> int
(** Total domains spawned by this pool in this process — the bench's
    parallel-overhead budget (delta across a sweep must be [<= jobs]). *)

val max_workers : int
(** Hard cap on pool domains, leaving headroom under OCaml's domain
    limit. *)

module For_testing : sig
  val size : unit -> int
  (** Current number of live pool domains (0 until the first parallel
      sweep; the pool persists afterwards). *)

  val quiesce : unit -> bool
  (** Join every pool domain and reset to the empty (lazily respawning)
      state, so a test can start from a fresh pool. Returns [false]
      without touching the pool if a task is in flight. *)
end
