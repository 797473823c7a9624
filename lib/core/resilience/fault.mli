(** Deterministic fault injection for exercising solver degradation paths.

    Tests install a fault plan with {!For_testing.with_faults}; instrumented evaluation
    sites (root-finder function evals, ODE right-hand sides) poll
    {!outcome} and either pass through, return a NaN-poisoned value, or
    raise a typed [Fault_injected] failure. Which evals fault is decided by
    hashing the eval index with [Splitmix.hash], so a plan with rate [n]
    faults a pseudo-random ~1/n of evals — deterministically for a fixed
    seed, independent of chunking or domain count, and (unlike a literal
    "every Nth eval" rule) without guaranteeing that every retry re-faults
    at the same relative position. An optional [limit] stops injecting
    after that many faults so a fallback ladder's later rungs run clean.

    Fault state is domain-local: faults only fire on the domain that
    installed them. Production code never installs faults; without a plan
    {!outcome} is a single DLS load. *)

type mode =
  | Fail_every of int  (** raise [Fault_injected] on ~1/n of evals *)
  | Nan_every of int  (** return NaN from ~1/n of evals *)

val outcome : unit -> [ `Pass | `Nan | `Fail of int ]
(** Called by instrumented eval sites. [`Fail i] means the site should
    raise [Solver_error.Fault_injected { eval = i }]; [`Nan] means it
    should return [Float.nan]. Bumps [resilience/fault_injected] whenever
    a fault fires. *)

val active : unit -> bool
(** Whether a fault plan is installed on this domain. Memoization layers
    (e.g. the {!Gnrflash_device.Program_erase} warm-replay cache) consult
    this to bypass both lookup and store under fault injection, so a
    poisoned or fault-shortened solve is never replayed as a clean one —
    and a cached clean outcome never masks the fault path under test. *)

(** Plan installation and inspection: production code never installs
    faults. *)
module For_testing : sig
  val with_faults : ?seed:int -> ?limit:int -> mode -> (unit -> 'a) -> 'a
  (** Install a fault plan for the dynamic extent of the thunk (restores
      the previous plan afterwards, exception-safe). [seed] defaults to
      0. *)

  val injected : unit -> int
  (** Faults fired by the current plan so far (0 without a plan). *)
end
