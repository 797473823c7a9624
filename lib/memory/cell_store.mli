(** Struct-of-arrays cell population: the allocation-free backing store
    for {!Command_fsm}, {!Nand_block} and the endurance paths.

    The paper models the array as a uniform population of identical
    floating-gate cells distinguished only by stored charge and wear
    (Hossain et al., SOCC 2014), so one shared {!Gnrflash_device.Fgt.t}
    record per store plus flat float columns for [qfg] and the wear
    scalars replaces the boxed per-cell {!Cell.t} records: writes are
    in-place, and batched range operations resolve one surrogate solve
    per {e distinct} charge and replay the precomputed charge/wear deltas
    across the range.

    Once cycling settles, such cells move between a handful of discrete
    charge states, so each store interns the charges its memos meet as
    dense {e charge ids} and keeps each cell's id beside its charge. A
    replayed pulse is then a few array loads by id, and a readout at the
    default level is one byte load per cell.

    Bit-identity contract: every update applies exactly the float
    expressions of {!Cell.program} / {!Cell.erase}, a bias pulse and its
    {!Gnrflash_device.Reliability.after_pulse} wear (memoized per distinct
    starting charge once {!Gnrflash_device.Program_erase.memoizable}
    allows it), so charges, wear and digests stay Int64-bit-identical to
    the seed record-based path. The side-by-side qcheck property in
    [test/test_cell_store.ml] pins this. *)

type t
(** Mutable store. Not thread-safe; each execution-tier worker owns its
    instances. *)

val create : ?qfg:float -> ?surrogate:bool -> n:int -> Gnrflash_device.Fgt.t -> t
(** [n] cells over one shared device record, all at charge [qfg]
    (default neutral) with zero wear, and one cold
    {!Gnrflash_device.Program_erase.engine} for the store's lifetime
    ([surrogate] is passed to it, default on). Every pulse of the store
    goes through that engine, so a store's results depend only on what
    was done to it. @raise Invalid_argument if [n < 1]. *)

val length : t -> int
val device : t -> Gnrflash_device.Fgt.t

val engine : t -> Gnrflash_device.Program_erase.engine
(** The store's pulse engine, for callers that pulse its cells outside
    {!For_testing.apply_pulse_at} (e.g. an ISPP loop) and must share its caches. *)

(** {1 Per-cell scalar access} *)

val qfg : t -> int -> float
val fluence : t -> int -> float
val cycles : t -> int -> int
val broken : t -> int -> bool
val set_qfg : t -> int -> float -> unit
(** Write cell [i]'s charge. The cell drops its charge id and looks
    its new charge up at its next pulse; this never interns a charge. *)

val dvt : t -> int -> float
(** Threshold shift of cell [i]: bit-identical to
    {!Gnrflash_device.Fgt.threshold_shift} (the control-coupling
    capacitance is hoisted at [create]). *)

(** {1 Cell views}

    {!Cell.t} stays the single-cell currency for APIs and tests; these
    convert at the boundary. *)

val view : t -> int -> Cell.t
(** Boxed snapshot of cell [i] (shares the store's device record). *)

val blit : t -> src:int -> dst:int -> len:int -> unit
(** Copy cells [src .. src + len - 1] (charge, charge id and wear) onto
    cells [dst .. dst + len - 1] of the same store, as [Array.blit]
    would: the copies answer every memo as the originals do.
    @raise Invalid_argument if either range is not in the store. *)

(** {1 Batched pulse application} *)

type memo
(** Transition columns of one fixed [(pulse, reliability)] pair on one
    store, indexed by the starting charge's id: the id after the pulse
    and the precomputed wear deltas of
    {!Gnrflash_device.Reliability.after_pulse}. A replay loads them and
    the new id's charge and readout bit, so it needs no hash probe, no
    solve and no separate verify read. E.g. {!Command_fsm} keeps an
    instance-lifetime program memo and erase memo.

    A charge gets an id only when a pulse outcome is admitted, i.e. when
    {!Gnrflash_device.Program_erase.memoizable} holds for the store's
    engine; before that, every pulse reaches the engine so the surrogate
    builds on exactly the same pulse as on the record-based path. Ids
    compare charges by their full bits, so [q] and [-.q], [0.] and
    [-0.] get distinct ids. A cell whose charge has no id (fresh,
    {!set_qfg}, a pulse the engine did not yet admit) is looked up by its
    charge at its next pulse. *)

val memo : t -> memo
(** An empty memo bound to the store. The kernels below raise
    [Invalid_argument] when given another store's memo (ids are
    store-local). *)

val probe_hash : int -> int
(** The charge-id table's probe hash: a multiply-xorshift mix of an
    integer key (here the raw bits of a charge), masked to the table's
    power-of-two capacity and probed linearly. Shared with {!Service}'s
    SEC-DED codeword memo. *)

exception Pulse_error of string
(** A pulse failed: broken oxide (["Cell: oxide broken"]) or a solver
    error (its {!Gnrflash_resilience.Solver_error.to_string}). Raised by
    the fused kernels {!program_verify} and {!erase_round}, which return
    bare counts so their hit path allocates nothing. *)

val program_verify :
  ?reliability:Gnrflash_device.Reliability.model ->
  t ->
  memo:memo ->
  pulse:Gnrflash_device.Program_erase.pulse ->
  max_pulses:int ->
  int -> int
(** Pulse-and-verify of cell [i]: while it reads [1] (at 1 V) and fewer
    than [max_pulses] pulses were applied, apply one pulse as
    {!For_testing.apply_pulse_at} does; returns the number of pulses
    applied. The verify read after a replayed pulse is the new id's bit,
    so a call whose pulses all hit allocates nothing. Bit-identical to the
    loop [while sense t ~base:i ~bits:1 = 1 && p < max_pulses do
    For_testing.apply_pulse_at ...].
    @raise Pulse_error on the first failed pulse; pulses before it keep
    their updates and the failed one leaves the cell unchanged. *)

val erase_round :
  ?reliability:Gnrflash_device.Reliability.model ->
  t ->
  memo:memo ->
  pulse:Gnrflash_device.Program_erase.pulse ->
  lo:int -> hi:int -> int
(** One pulse on every cell of [lo..hi] inclusive, ascending, as
    {!For_testing.apply_pulse_at} does; returns how many of those cells read [0] (at
    1 V) after their pulse. One solve per distinct charge in the range,
    deltas replayed across the rest, allocation-free when every pulse
    hits: an intact cell whose charge id the memo has solved replays
    straight away, and only the others go through the per-cell checks
    (broken oxide, a cell without an id, a solve). An empty range
    ([lo > hi]) pulses nothing and returns [0].
    @raise Invalid_argument if the range is not empty and reaches outside
    the store ([lo < 0] or [hi >= length t]), before any cell is pulsed.
    @raise Pulse_error at the first failed pulse (cells before it
    keep their updates, matching the seed per-cell loop). *)

(** {1 Program/erase run kernel} *)

type pe_readout = {
  mutable vt_programmed : float;  (** threshold after the program pulse [V] *)
  mutable vt_erased : float;  (** threshold after the erase pulse [V] *)
}
(** Caller-owned thresholds of the last cycle {!run_cycles} completed.
    All its fields are floats, so it is stored flat and the kernel writes
    it without boxing (an [int] field would box both thresholds). *)

val pe_readout : unit -> pe_readout

val run_cycles :
  t ->
  reliability:Gnrflash_device.Reliability.model ->
  pmemo:memo ->
  ememo:memo ->
  program:Gnrflash_device.Program_erase.pulse ->
  erase:Gnrflash_device.Program_erase.pulse ->
  window_min:float ->
  cycles:int ->
  int -> pe_readout -> int
(** Endurance cycles of cell [i], up to [cycles] of them: each is a
    program pulse as {!For_testing.apply_pulse_at} with [pmemo], the
    cell's effective threshold, an erase pulse with [ememo], and the
    threshold again. Stops after the first cycle whose window
    [vt_programmed -. vt_erased] is below [window_min]; returns the
    cycles completed, with the last one's thresholds in the readout (left
    as it was when none completed). Each threshold is
    [Cell.For_testing.effective_vt ~reliability] of {!view}, bit for bit.

    A cell that is intact at a charge id [a] with [a -> b] in [pmemo] and
    [b -> a] in [ememo] (a bit-exact two-cycle of the memos) runs its
    cycles on the two transitions' wear deltas, the two charges and the
    two threshold bases held in locals, and writes its columns back once;
    any other cell runs one pulse at a time until it reaches such a pair.
    Either way the charges, wear and thresholds are those of the per-pulse
    loop, operation for operation, and a cycle whose two pulses replay
    from the memos allocates nothing.
    @raise Pulse_error on a failed pulse (broken oxide first, or a solver
    error), leaving the cell as {!For_testing.apply_pulse_at} would: the
    store's [cycles] column then counts the pulses applied, so on a fresh
    store [cycles / 2] is the number of cycles completed.
    @raise Invalid_argument if [i] is not a cell of the store. *)

(** {1 Word-level kernels}

    One call per word or sector: the per-cell loops of {!Command_fsm}'s
    program, erase verify and read run inside this module, so no call
    crosses a module boundary per cell and no readout float is boxed,
    under dune's [-opaque] dev profile too. Each kernel is bit-identical
    to the per-cell loop of {!program_verify} / one-cell {!sense} it
    replaces. *)

type word_outcome = {
  mutable slowest : int;  (** most pulses any bit of the word took *)
  mutable total : int;  (** pulses summed over the word's bits *)
  mutable timed_out : bool;
      (** a bit still misreads its target after verify *)
  mutable word : int;
      (** the word's readout after the program, packed as {!sense}'s *)
}
(** Caller-owned result of {!program_word}, refilled by every call so
    the kernel allocates nothing. *)

val word_outcome : unit -> word_outcome

val program_word :
  ?reliability:Gnrflash_device.Reliability.model ->
  t ->
  memo:memo ->
  pulse:Gnrflash_device.Program_erase.pulse ->
  max_pulses:int ->
  base:int ->
  bits:int ->
  sensed:int ->
  data:int ->
  word_outcome ->
  unit
(** Embedded word program of cells [base .. base + bits - 1], bit [i] of
    [data] being the target of cell [base + i] (bits of [data] at and
    above [bits] are ignored). [sensed] is the word's current readout and
    must equal [sense t ~base ~bits]: the kernel does not read the word
    itself, so a caller that keeps each word's readout (as
    {!Command_fsm} does) skips that scan. A target-1 bit reading [0]
    cannot be raised and counts as a timeout (AND semantics). The
    target-0 bits reading [1] are then programmed one at a time in
    ascending order, the order the engine sees: each is pulsed and
    verified up to [max_pulses] times, as by {!program_verify}, and one
    still reading [1] after [max_pulses] counts as a timeout too. Fills
    the outcome with the slowest bit's pulse count, the total, the
    timeout flag and [word], the readout afterwards: [sensed] with the
    visited bits that verified [0] cleared, so [word = sense t ~base
    ~bits] once the call returns. A word of [bits = 0] (or less) pulses
    nothing and reads [0 / 0 / false], with [word = sensed].
    @raise Pulse_error on the first failed pulse: that bit's cell is
    restored to its state before the word's program (charge, charge id
    and wear, snapshot held in unboxed locals), later bits are untouched,
    earlier bits keep their pulses, and [slowest] and [total] count the
    earlier bits only; [word] is the readout after the restore (the
    earlier bits' results, the failed and later bits as in [sensed]), so
    it still equals {!sense}; [timed_out] is unspecified.
    @raise Invalid_argument if [bits >= Sys.int_size], or if [bits > 0]
    and the word's cells are not all in the store. *)

val all_erased : t -> lo:int -> hi:int -> bool
(** Every cell in [lo..hi] inclusive reads [1] (at 1 V): the erase's
    first verify scan, which stops at the first cell reading [0]. *)

val sense : t -> base:int -> bits:int -> int
(** The packed readout of cells [base .. base + bits - 1] (at 1 V): bit
    [i] of the result is [0] (programmed) when cell [base + i]'s {!dvt}
    exceeds 1 V, else [1] — the {!Cell.For_testing.state}/{!Cell.to_bit}
    composition without the record round-trip. A cell with a charge id
    reads its id's bit, computed with the same expression when the id was
    made. Allocates nothing.
    @raise Invalid_argument if [bits >= Sys.int_size]. *)

val apply_pulse_range :
  ?reliability:Gnrflash_device.Reliability.model ->
  t ->
  memo:memo ->
  pulse:Gnrflash_device.Program_erase.pulse ->
  lo:int -> hi:int -> (unit, string) result
(** {!erase_round} with its count ignored and its {!Pulse_error} turned
    into [Error]. @raise Invalid_argument on a range outside the store,
    as {!erase_round}, with no cell pulsed. *)

val fold_digest : t -> (int -> int -> int) -> int -> int
(** [fold_digest t f h] folds [f] over every cell in address order —
    charge bits, fluence bits, traps bits, cycles, broken flag — exactly
    the per-cell prefix of {!Command_fsm.state_digest}, so digests stay
    stable across the SoA refactor. *)

(** Introspection of the charge ids and direct cell state, and the
    per-cell pulse step, for tests. *)
module For_testing : sig
  val traps : t -> int -> float

  val apply_pulse_at :
    ?reliability:Gnrflash_device.Reliability.model ->
    t ->
    memo:memo ->
    pulse:Gnrflash_device.Program_erase.pulse ->
    int -> (unit, string) result
  (** Apply one pulse to cell [i] in place, bit-identical to
      {!Cell.program}/{!Cell.erase} on the equivalent {!Cell.t} with the
      store's engine: broken oxide fails first (before any lookup), a
      repeated charge replays its id's transition in O(1) with no solve and
      no allocation, and a fresh charge makes one
      {!Gnrflash_device.Program_erase.apply_pulse} call and memoizes when
      sound (see {!type-memo}). Solver errors are returned (never memoized) with the cell unchanged. This
      is the per-cell step the batched kernels are specified against; no
      program calls it directly. *)

  val set : t -> int -> Cell.t -> unit
  (** Write [c]'s charge and wear into slot [i], the charge as
      {!set_qfg} does. The cell's [device] field is ignored: the store's
      shared device stays authoritative. *)

  val charge_id : t -> int -> int
  (** Cell [i]'s charge id; [0] when it has none (a fresh or set cell
      gets its charge's id at its next pulse). *)

  val id_of_charge : t -> float -> int
  (** The charge's id, [0] when it was never interned. *)

  val ids : t -> int
  (** Charges interned so far. *)
end
