(** Command-level NOR memory service: the glue that runs host commands
    ({!Workload.host_cmd}) through the {!Ftl} space manager and mirrors
    every journaled physical operation ({!Ftl.journal}) onto a behavioral
    {!Command_fsm} device as real JEDEC command sequences — unlock
    cycles, word or write-buffer programs, sector erases, and
    suspend/resume dances for suspend-flagged host writes.

    Data pages are SEC-DED encoded ({!Ecc}) before programming and
    decoded on every host read, so the service observes the device the
    way firmware does: through codewords, busy polling and status bits.
    Words travel packed (one [int], bit [i] = cell [i]); the encode and
    the decode ({!Ecc.decode_packed}) are memoized per distinct word per
    instance, so a warm read compares two ints.
    All timing is model time (see {!Command_fsm}), which makes latency
    percentiles and the trace digest bit-identical across execution
    tiers (serial and [--jobs]) for a fixed seed. Latencies are sums of
    fixed-width program and erase pulses and whole bus cycles, so an
    instance sees few distinct values: it counts them in an exact table
    (distinct latency -> commands), whose size grows with the distinct
    values, not with the commands served. *)

type config = {
  ftl : Ftl.config;      (** FTL geometry; blocks become device sectors *)
  strings : int;         (** data bits per page (GNR strings) *)
  poll_interval : float; (** >0: DQ6 data-toggle polling every this many
                             model seconds; 0: RY/BY#-style wait *)
}
(** The device runs {!Command_fsm.default_config}'s pulses and verify
    retries, with one sector per FTL block, one word per page and one
    cell per codeword bit. *)

val default_config : config
(** {!Ftl.default_config} geometry, 8 data bits (13-bit codewords),
    RY/BY# waits. *)

type t
(** Mutable service instance (owns a {!Command_fsm.t} and an {!Ftl.t}).
    Not thread-safe; each execution-tier worker owns its instances. *)

type latency_table = {
  values : float array; (** distinct host-command latencies, ascending
                            (model seconds) *)
  counts : int array;   (** [counts.(i)] commands took [values.(i)] *)
}

type latency_summary = {
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}
(** Host-command latency percentiles in model seconds. *)

type report = {
  ops : int;               (** host commands submitted *)
  reads : int;
  read_hits : int;         (** reads of a mapped logical page *)
  writes : int;            (** host writes accepted by the FTL *)
  rejected_full : int;     (** host writes rejected with [Device_full] —
                               accounted, never lost *)
  trims : int;
  lost_ops : int;          (** [ops] minus all accounted outcomes; 0 on a
                               correct run *)
  read_mismatches : int;   (** decoded page differed from ground truth *)
  verify_mismatches : int; (** final full-scan decode mismatches *)
  model_time : float;      (** device model clock at the end [s] *)
  latency : latency_table; (** every host command's latency *)
  trace_digest : int;      (** order-sensitive digest of every host-command
                               outcome and its latency *)
  state_digest : int;      (** digest of final device cells/wear, FTL
                               mapping and counters *)
  fsm : Command_fsm.stats;
  ftl : Ftl.stats;
  invariant_error : string option;  (** {!Ftl.check_invariants} failure *)
}

val create : ?config:config -> Gnrflash_device.Fgt.t -> t
(** Fresh service over a fresh device. @raise Invalid_argument if the
    geometry is non-positive. *)

val logical_pages : t -> int
(** Logical address space exposed to host commands
    ({!Ftl.logical_capacity}). *)

val device : t -> Command_fsm.t

val exec : t -> Workload.host_cmd -> unit
(** Run one host command to completion (the device is always ready
    again when this returns). Logical page numbers wrap modulo
    {!logical_pages} into [0, logical_pages), negative ones included. [Device_full] rejections are recorded, not raised.
    @raise Failure on a service-level protocol violation (an FSM command
    rejected mid-mirror, or an FTL internal error escaping — the bugs
    the regression suite pins down).
    @raise Invalid_argument when a write's data is not [strings] entries
    of 0 or 1 (checked before the FTL sees the write). *)

val latency_summary : latency_table array -> latency_summary
(** Percentiles of a fleet's merged latencies: with [n] latencies in
    all, percentile [p] is the value of rank [Float.round (p (n - 1))]
    (0-based) in ascending order, and [max] the largest; all are 0 when
    [n = 0]. The tables' counts of equal values add up, so the result
    does not depend on the order of the tables — identical across
    [--jobs] settings for a fixed seed. *)

val report : t -> report
(** Totals since [create]; computes the final verify scan (every live
    logical page is sensed from the cell array and SEC-DED decoded
    against ground truth) and the digests. *)

val run_trace :
  ?profile:Workload.command_profile -> seed:int -> ops:int -> t -> report
(** {!exec} the first [ops] commands of {!Workload.commands} in order,
    then {!report}. The profile defaults to {!Workload.default_profile};
    its [pages]/[strings] are set to this service's geometry. Each
    command is generated as it is executed, so no trace array is built.
    @raise Invalid_argument when [ops < 0] or the profile is bad. *)
