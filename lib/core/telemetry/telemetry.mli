(** Solver telemetry: named monotonic counters and wall-clock span
    timers for the tunneling → capacitive-network → transient pipeline.

    Every entry point is one branch away from a no-op while disabled, so
    the instrumentation stays permanently wired into the numeric kernels.
    [span] extends a per-domain context path; every counter or nested
    span recorded inside is keyed under the caller's path
    (e.g. ["transient/run/ode/rhs_eval"]), attributing work to the figure
    or experiment that asked for it.

    Domain-safety: each domain records into its own lock-free
    [Domain.DLS] sink. The Sweep pool's worker domains call
    {!flush_local} once per task, after draining, merging into a
    mutex-protected global accumulator (the only way another domain's
    counts reach it); the read accessors see the merge of the global
    accumulator and the calling domain's local sink, so single-domain
    callers observe exactly serial semantics. *)

type span_stat = {
  calls : int;     (** number of completed span invocations *)
  total_s : float; (** summed wall-clock seconds across invocations *)
}

type snapshot = {
  counters : (string * int) list;
  spans : (string * span_stat) list;
}
(** A sorted, point-in-time view of every recorded metric. *)

(** {1 Lifecycle} *)

val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Drop all recorded values (global accumulator and this domain's sink);
    the enabled flag is untouched. *)

val flush_local : unit -> unit
(** Merge this domain's local sink into the global accumulator and clear
    it — called by Sweep pool workers once per task, after draining. *)

val flush_count : unit -> int
(** Number of {!flush_local} calls in this process so far. The bench uses
    the delta across a [Sweep] call to assert telemetry is batched (one
    flush per participating worker, not one per chunk). *)

(** {1 Recording} *)

val count : ?n:int -> string -> unit
(** Increment a monotonic counter by [n] (default 1; non-positive [n] is
    ignored), keyed under the current span context. No-op while disabled. *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] times [f ()] and attributes everything recorded inside
    it to [context/name]. Exceptions propagate; the time still counts.
    Calls [f] untimed while disabled. *)

val context_prefix : unit -> string
(** The current joined span path ([""] at top level). *)

val with_context_prefix : string -> (unit -> 'a) -> 'a
(** Run with the span context forced to [prefix] — used by the Sweep pool
    so worker domains key their work exactly like the submitting domain. *)

(** {1 Reading} *)

val snapshot : unit -> snapshot

(** {1 Rendering} *)

val render_text : snapshot -> string

val render_json : snapshot -> string
(** One line: [{"counters":{NAME:INT,...},"spans":{NAME:{"calls":INT,
    "total_s":FLOAT},...}}] in the snapshot's order. Names are JSON-escaped.
    [total_s] prints with 17 significant digits, so it reads back as the
    same float; an integer value below 10¹⁵ prints with one decimal. *)

(** Point lookups for tests; programs read a {!snapshot}. *)
module For_testing : sig
  val is_enabled : unit -> bool

  val counter : string -> int
  (** Exact-key counter lookup (0 if absent). *)

  val counter_total : string -> int
  (** Sum of every counter whose path is [name] or ends in ["/" ^ name] —
      e.g. ["ode/rhs_eval"] regardless of which span recorded it. *)

  val span_stat : string -> span_stat option
end
