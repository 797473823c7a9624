(** Multi-process sharding tier under {!Sweep} — scale past a single
    process (and eventually a single machine) by forking worker processes,
    each owning a contiguous slice of the index space, with length-prefixed
    binary result framing over pipes.

    Entry point is {!Sweep.map}[ ~shards] (and friends) or the CLI
    [--shards] flag; this module only exposes the mechanism plus the
    worker-side introspection hooks.

    Guarantees:
    - {b bit-identical to serial}: slices are contiguous, assembled in
      shard order, and each element is produced by the same pure call as
      the serial path — job count, chunking, and shard count never change
      the result;
    - {b no hangs}: a worker that dies before writing a full frame (or
      exits nonzero) surfaces as
      {!Gnrflash_resilience.Solver_error.Worker_failed}; remaining workers
      are reaped before the error is raised;
    - {b telemetry parity}: each worker ships a snapshot of its own
      metrics in the result frame and the parent absorbs them additively,
      so counter totals and keys match an unsharded run.

    Restrictions: mapped results must be marshalable pure data (no
    closures, no custom blocks); a [Solver_failure] raised in a worker
    crosses the process boundary intact, any other exception is reported
    as [Worker_failed]. Forking with live pool domains is unsafe in
    OCaml 5, so the pool is quiesced first; a sharded sweep nested inside
    a running in-process sweep silently degrades to the in-process tier. *)

val run :
  shards:int ->
  n:int ->
  run_slice:(lo:int -> len:int -> 'b array) ->
  'b array
(** [run ~shards ~n ~run_slice] evaluates the index space [0 .. n-1] as
    [min shards (max 1 n)] contiguous slices — [run_slice ~lo ~len] must
    return the results for global indices [lo .. lo+len-1] — forking one
    worker process per slice beyond the first and concatenating in shard
    order. [~shards:1] (or [n <= 1]) runs the single slice in-process.
    @raise Invalid_argument if [shards < 1].
    @raise Gnrflash_resilience.Solver_error.Solver_failure with kind
    [Worker_failed] if a worker dies or returns a malformed frame. *)

(** Observers for tests: where a closure is running. *)
module For_testing : sig
  val in_worker : unit -> bool
  (** [true] inside a forked shard worker. *)

  val worker_index : unit -> int option
  (** The 1-based shard index inside a worker, [None] in the parent. *)
end
