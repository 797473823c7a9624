(** Struct-of-arrays cell population: the allocation-free backing store
    for {!Command_fsm}, {!Nor_array}, {!Nand_block} and the endurance
    paths.

    The paper models the array as a uniform population of identical
    floating-gate cells distinguished only by stored charge and wear
    (Hossain et al., SOCC 2014), so one shared {!Gnrflash_device.Fgt.t}
    record per store plus flat float columns for [qfg] and the wear
    scalars replaces the boxed per-cell {!Cell.t} records: writes are
    in-place, bit readout is O(1) arithmetic on [qfg], and batched range
    operations resolve one surrogate solve per {e distinct} charge and
    replay the precomputed charge/wear deltas across the range.

    Bit-identity contract: every update applies exactly the float
    expressions of {!Cell.apply_bias_pulse} /
    {!Gnrflash_device.Reliability.after_pulse} (memoized per distinct
    starting charge — valid because the pulse solve is a pure function of
    [(device, vgs, duration, qfg)], see {!Gnrflash_device.Program_erase}),
    so charges, wear and digests stay Int64-bit-identical to the seed
    record-based path. The side-by-side qcheck property in
    [test/test_cell_store.ml] pins this. *)

type t
(** Mutable store. Not thread-safe; each execution-tier worker owns its
    instances. *)

val create : ?qfg:float -> n:int -> Gnrflash_device.Fgt.t -> t
(** [n] cells over one shared device record, all at charge [qfg]
    (default neutral) with zero wear. @raise Invalid_argument if [n < 1]. *)

val length : t -> int
val device : t -> Gnrflash_device.Fgt.t

(** {1 Per-cell scalar access} *)

val qfg : t -> int -> float
val fluence : t -> int -> float
val traps : t -> int -> float
val cycles : t -> int -> int
val broken : t -> int -> bool
val set_qfg : t -> int -> float -> unit

val dvt : t -> int -> float
(** Threshold shift of cell [i]: bit-identical to
    {!Gnrflash_device.Fgt.threshold_shift} (the control-coupling
    capacitance is hoisted at [create]). *)

val bit : ?dvt_threshold:float -> t -> int -> int
(** O(1) readout: [0] (programmed) when [dvt] exceeds the decision level
    (default 1 V), else [1] — the {!Cell.state}/{!Cell.to_bit}
    composition without the record round-trip. *)

(** {1 Cell views}

    {!Cell.t} stays the single-cell currency for APIs and tests; these
    convert at the boundary. *)

val view : t -> int -> Cell.t
(** Boxed snapshot of cell [i] (shares the store's device record). *)

val set : t -> int -> Cell.t -> unit
(** Write [c]'s charge and wear into slot [i]. The cell's [device] field
    is ignored: the store's shared device stays authoritative. *)

(** {1 Batched pulse application} *)

type memo
(** Memo of pulse outcomes keyed by the bits of the starting charge
    (sign-preserving, so [-0.] and [0.] stay distinct). Each entry
    carries the post-pulse charge and the precomputed wear deltas of
    {!Gnrflash_device.Reliability.after_pulse}. A memo is valid for one
    fixed [(pulse, surrogate, reliability)] triple on this store's device
    — e.g. an instance-lifetime program memo and erase memo in
    {!Command_fsm}. Entries are admitted from two sources: surrogate-served
    outcomes (pure in the charge by certification), and out-of-box exact
    outcomes once {!Gnrflash_device.Pulse_surrogate.response_static} says
    the consult can no longer advance the build promotion — before that,
    every pulse re-consults so the surrogate builds on exactly the same
    pulse as under the record-based path. *)

val memo : unit -> memo

val apply_pulse_at :
  ?reliability:Gnrflash_device.Reliability.model ->
  t ->
  memo:memo ->
  pulse:Gnrflash_device.Program_erase.pulse ->
  surrogate:bool ->
  int -> (unit, string) result
(** Apply one pulse to cell [i] in place, bit-identical to
    {!Cell.program}/{!Cell.erase} on the equivalent {!Cell.t}: broken
    oxide fails first (before any lookup), a fresh charge resolves one
    surrogate consult (falling back to the exact/replay solver) and
    memoizes when sound (see {!type-memo}), a repeated charge replays the
    deltas in O(1) with no solve and no allocation. Solver errors are
    returned (never memoized) with the cell unchanged. *)

val apply_pulse_range :
  ?reliability:Gnrflash_device.Reliability.model ->
  t ->
  memo:memo ->
  pulse:Gnrflash_device.Program_erase.pulse ->
  surrogate:bool ->
  lo:int -> hi:int -> (unit, string) result
(** [apply_pulse_at] over [lo..hi] inclusive, ascending — one solve per
    distinct charge in the range, deltas blitted across the rest. Stops
    at the first error (cells before it keep their updates, matching the
    seed per-cell loop). *)

val fold_digest : t -> (int -> int -> int) -> int -> int
(** [fold_digest t f h] folds [f] over every cell in address order —
    charge bits, fluence bits, traps bits, cycles, broken flag — exactly
    the per-cell prefix of {!Command_fsm.state_digest}, so digests stay
    stable across the SoA refactor. *)
