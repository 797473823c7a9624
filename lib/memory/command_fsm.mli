(** Behavioral command-level NOR flash device, modeled on the classic
    JEDEC/AMD command set: unlock cycles, embedded word program with
    internal program-and-verify, a write buffer, sector erase with
    suspend/resume, busy/ready status with data-toggle semantics, and
    typed command-sequence errors.

    Every program and erase resolves through the device physics of
    {!Gnrflash_device.Program_erase} (surrogate-accelerated, through the
    instance's own {!Cell_store} engine),
    so busy durations, over-erase drift and wear are consequences of the
    paper's floating-gate model rather than datasheet constants. Time is
    {e model time} in seconds — each bus cycle costs 100 ns and each
    embedded operation holds the device busy for its accumulated pulse
    time — which makes latency measurements bit-deterministic and
    independent of the execution tier running the simulation.

    State machine (command cycles, addresses taken modulo the device
    span; [SA] = any address inside the target sector):

    {v
                0xAA@0x555      0x55@0x2AA
        Idle ────────────► U1 ────────────► Unlocked
          ▲                                  │ │ │
          │ 0xF0 (reset, from any            │ │ └─ 0x25@SA ► Buf_count
          │      non-busy state)             │ │              │ N-1@SA
          │                                  │ │              ▼
          │                    0xA0@0x555 ◄──┘ │          Buf_load (N words @SA)
          │                        │           │              │
          │                        ▼           │              ▼
          │                  Word_program      │          Buf_confirm ── 0x29@SA ─► BUSY
          │                  (addr,data) ─► BUSY
          │                                    └─ 0x80@0x555 ► Erase_setup
          │                                         │ 0xAA@0x555, 0x55@0x2AA
          │                                         ▼
          │                                    Erase_unlocked
          │                                      │ 0x30@SA ─► BUSY (sector erase)
          │                                      │ 0x10@0x555 ► BUSY (chip erase)
          │        while erasing: 0xB0 ─► SUSPENDED ─ 0x30 ─► BUSY (resume)
    v}

    While busy, reads return a status answer (DQ7 = complement of
    programmed data, DQ6 toggles on every status read, DQ2 toggles for
    the suspended sector); bus writes other than suspend/reset are
    rejected with a typed error and leave the operation running. *)

type config = {
  sectors : int;
  words_per_sector : int;
  word_bits : int;            (** cells per word (data + ECC bits) *)
  write_buffer_words : int;   (** capacity of the program buffer *)
  program_pulse : Gnrflash_device.Program_erase.pulse;
  max_pulses : int;           (** internal program/erase verify retries *)
}
(** Every bus cycle takes 100 ns, and every erase pulse is
    {!Gnrflash_device.Program_erase.default_erase_pulse} (−15 V, 1 ms). *)

val default_config : config
(** 8 sectors × 32 words × 13 bits, 16-word buffer, the paper's
    15 V / 1 ms program pulse, 8 verify retries. *)

type t
(** Mutable device instance (one word line of cells per word, flat).
    Not thread-safe; each execution-tier worker owns its instances.
    The command state, the running operation (an int tag plus its DQ7
    bit or sector) and the suspended erase (its sector, or -1) are
    immediate fields updated in place, so bus cycles and operation
    launches allocate nothing on the heap. The word span and the wrapped
    unlock addresses are kept too: a bus cycle divides only to wrap an
    out-of-range address or to find a sector (of a buffer or erase
    command, or while an erase is suspended). *)

type error =
  | Bad_sequence of { state : string; addr : int; data : int }
      (** command cycle that no edge of the state machine accepts *)
  | Busy of { operation : string }
      (** bus write while an embedded operation is running *)
  | Not_erasing  (** suspend with no erase in flight *)
  | Buffer_overflow of { count : int; capacity : int }
  | Buffer_sector_crossing of { sector : int; addr : int }
  | Physics of string
      (** the underlying pulse solve failed (typed solver error text) *)

val error_to_string : error -> string

type stats = private {
  mutable bus_cycles : int;
  mutable data_reads : int;
  mutable status_reads : int;
  mutable programs : int;          (** embedded program operations (word or buffer) *)
  mutable words_programmed : int;
  mutable sector_erases : int;
  mutable chip_erases : int;
  mutable suspends : int;
  mutable resumes : int;
  mutable resets : int;
  mutable program_pulses : int;    (** physics pulses, program polarity *)
  mutable erase_pulses : int;
  mutable verify_timeouts : int;   (** words/sectors that hit [max_pulses] *)
  mutable disturb_events : int;    (** program pulses seen by unselected words *)
  mutable bad_sequences : int;
}

val create : ?config:config -> Gnrflash_device.Fgt.t -> t
(** Fresh device, all cells erased (neutral charge), model clock at 0.
    @raise Invalid_argument on non-positive geometry, or a word wider
    than a packed [int] holds ([word_bits >= Sys.int_size]). *)

val config : t -> config
val words : t -> int
(** Total word span ([sectors × words_per_sector]); addresses wrap
    modulo this into [\[0, words)], negative ones included. *)

val now : t -> float
(** Model clock [s]. One field load from a flat float record, small
    enough for ocamlopt to inline into a caller in another module when
    [lib/] is built without [-opaque] (the default profile, see the root
    [dune-workspace]): the caller then reads the clock unboxed. Under
    [-opaque] each call returns a boxed float (2 words). *)

val ready : t -> bool
(** RY/BY# — false while an embedded operation is running (a suspended
    erase with no nested program reports ready). *)

val write : t -> addr:int -> data:int -> (unit, error) result
(** One bus write cycle (advances the clock by 100 ns). Drives the
    command state machine; completed unlock sequences launch embedded
    operations. For the program data cycle, [data] is the target word:
    bit [i] of [data] is the target for cell [i] (AND semantics — a 1
    over a programmed 0 cannot erase it; the internal verify then records
    a timeout, which is why the firmware layer must erase before
    program). A write-buffer load of an address already in the buffer
    replaces its value (the last value loaded wins, programmed once, in
    the slot of its first load). Errors leave the device state unchanged
    apart from the consumed bus cycle and the [bad_sequences] counter. *)

val read_word : t -> addr:int -> int
(** One bus read cycle (advances the clock by 100 ns), allocating
    nothing. Returns the sensed word, packed and non-negative: bit [i] is
    the readout of cell [i] of the word (its [word_bits] low bits; the
    rest are 0). While the device is busy, or for addresses in the
    suspended sector while an erase is suspended, it returns a status
    answer instead: a negative int with DQ7, DQ6, DQ5 and DQ2 at bits 7,
    6, 5 and 2. DQ7 is the complement of the bit being programmed (0
    while erasing), DQ6 toggles on every status read while busy, DQ2
    toggles for reads inside an erase-suspended sector, and DQ5 sets on
    an internal verify timeout. *)

val step_quarter_erase_pulse : t -> unit
(** Advance the model clock by a quarter of the erase pulse's duration,
    completing any operation whose busy window ends by then: a host
    letting an erase run before suspending it, with no float to box. *)

val wait_ready : t -> unit
(** RY/BY#-style wait: jump the clock to the end of the current busy
    window (no-op when ready). *)

val poll_ready : t -> interval:float -> int
(** Data-toggle polling loop: status-read the device every [interval]
    model seconds until DQ6 stops toggling; returns the number of status
    reads. The classic alternative to the RY/BY# pin. Polls through
    {!read_word}, so it allocates nothing. *)

val sense_word : t -> addr:int -> int
(** Direct array sense for verification harnesses: bypasses the bus (no
    clock advance, no status gating, works while busy or suspended).
    Packed as {!read_word}'s data answer is, by one {!Cell_store.sense} call;
    allocates nothing. *)

val stats : t -> stats
(** A copy of the counters; later bus cycles do not update it. *)

val state_name : t -> string
(** Current command-sequence state, for diagnostics ("idle",
    "unlocked", "erase_suspended", ...). *)

val state_digest : t -> int
(** Order-sensitive digest of the full device state: cell charges and
    wear (bit patterns of the floats), command state, clock, counters.
    Bit-identical runs produce equal digests for every [--jobs]. *)

module For_testing : sig
  (** {!read_word}'s answer as a variant. *)
  type read_result =
    | Data of int  (** the sensed word, packed *)
    | Status of { dq7 : int; dq6 : int; dq5 : int; dq2 : int }
        (** the status answer's DQ bits, each 0 or 1 *)

  val read : t -> addr:int -> read_result
  (** {!read_word} as a {!read_result}: the readable view the scripted
      bus tests match on. *)

  val cell : t -> idx:int -> Cell.t
  (** Boxed {!Cell.t} view of cell [idx] (flat index
      [addr × word_bits + bit]) out of the struct-of-arrays store — the
      single-cell window the side-by-side regression tests compare
      charge and wear through, bit for bit.
      @raise Invalid_argument when [idx] is out of range. *)
end
