(** Deterministic per-element seeding for randomized sweeps.

    Dependency-free so both the parallel engine and the resilience layer
    can share one hash without depending on each other. *)

val hash : seed:int -> index:int -> int
(** A non-negative 62-bit hash of [(seed, index)] (splitmix64 finalizer).
    The result depends only on [(seed, index)] — never on chunking or
    job count — which is what makes randomized sweeps
    reproducible across every execution tier. Re-exported as
    [Sweep.splitmix]. *)
