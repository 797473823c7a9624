(** NOR-type array: cells connected in parallel between bit line and
    ground, programmed by channel-hot-electron injection and erased by FN
    through the source — the architecture the paper's Section II contrasts
    against NAND. Random-access reads (one cell per bit line), fast CHE
    programming per cell, but large programming current. *)

type config = {
  vgs_program : float;   (** word-line bias during CHE programming [V] *)
  vds_program : float;   (** drain bias during programming [V] *)
  drain_current : float; (** channel current per programmed cell [A] *)
  pulse_width : float;   (** CHE pulse width [s] *)
  lateral_field : float; (** peak channel field for the lucky-electron model [V/m] *)
  che : Gnrflash_quantum.Che.params;
}

val default_config : config
(** 10 V / 5 V, 0.5 mA, 1 µs, 5×10⁸ V/m, silicon lucky-electron
    parameters. *)

type t
(** One word line backed by a {!Cell_store} (struct-of-arrays, mutated in
    place). [program_bit] and [erase_all] update the handle and return it,
    so existing pipeline-style callers keep working — but the returned
    value aliases the argument; retained pre-update snapshots are not
    supported. *)

val make : ?config:config -> Gnrflash_device.Fgt.t -> cells:int -> t
(** One word line of fresh cells. @raise Invalid_argument if [cells < 1]. *)

val length : t -> int
(** Cells on the word line. *)

val cell : t -> int -> Cell.t
(** Boxed view of one cell's current state (a fresh record per call). *)

val programs : t -> int
(** Program operations accepted so far. *)

val total_supply_charge : t -> float
(** Coulombs drawn for programming so far. *)

val program_bit : t -> index:int -> (t, string) result
(** CHE-program one cell: the injected charge is the gate current
    integrated over the pulse, [I_d·P_inject·t_pulse]; the supply charge
    is the full drain current. Fails on a bad index. *)

val read_bit : t -> index:int -> (int, string) result
(** Random-access read of one cell (no pass-gating needed in NOR). *)

val erase_all : t -> (t, string) result
(** FN erase of the whole word line (source erase): one default erase
    pulse per cell in index order, served through an instance erase memo,
    so the result is the same whatever the sweep job count. Stops at the
    first failing cell (e.g. a broken oxide): cells before it keep their
    erased state, cells from it on are untouched. *)

val programming_current : t -> simultaneous:int -> float
(** Supply current needed to program [simultaneous] cells at once [A] —
    the quantity that caps NOR program parallelism. *)
