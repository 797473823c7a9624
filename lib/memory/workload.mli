(** Synthetic workload traces — the substitute for production traces the
    paper's setting has no access to.

    Every draw is a pure function of [(seed, op index, draw slot)] via
    {!Gnrflash_prng.Splitmix}, so a trace depends only on its seed: not
    on list-construction order, job count, chunking or shard count. This
    is what makes golden-trace digests and cross-tier identity checks
    meaningful. *)

type op =
  | Write of { page : int; data : int array }
  | Read of { page : int }

type pattern =
  | Sequential    (** pages written round-robin *)
  | Uniform       (** pages drawn uniformly at random *)
  | Zipf of float (** skewed page popularity with the given exponent > 0 *)

val generate :
  seed:int -> pattern -> pages:int -> strings:int -> ops:int ->
  read_fraction:float -> op list
(** [ops] operations over a block of [pages]×[strings]; each write carries
    a random data pattern. [read_fraction] in [0, 1] is the probability an
    operation is a read. @raise Invalid_argument on bad parameters. *)

(** {1 Command streams}

    Host-level commands for the command-level memory service
    ({!Service}): logical reads, writes and trims, with optional
    suspend/resume injection on writes that trigger erases. *)

type host_cmd =
  | Cmd_write of { lpn : int; data : int array; suspend : bool }
      (** write [data] (bits, one per string) to logical page [lpn];
          when [suspend] is set, any erase this write triggers is
          suspended and resumed part-way through *)
  | Cmd_read of { lpn : int }
  | Cmd_trim of { lpn : int }

type command_profile = {
  pattern : pattern;
  pages : int;              (** logical page span of the trace *)
  strings : int;            (** data word width in bits *)
  read_fraction : float;
  trim_fraction : float;    (** [read + trim <= 1]; remainder are writes *)
  suspend_fraction : float; (** probability a write carries [suspend] *)
}

val default_profile : command_profile
(** Zipf(1.1) over 256 logical pages, 16-bit words, 30% reads, 5% trims,
    2% suspend injection. *)

val generate_commands :
  seed:int -> profile:command_profile -> ops:int -> host_cmd array
(** Deterministic command stream; element [i] depends only on
    [(seed, i)]. @raise Invalid_argument on bad parameters. *)

(** {1 Trace digests}

    Order-sensitive FNV-style digests for golden-trace pinning and
    bit-identity checks across execution tiers. Not cryptographic. *)

val digest_fold : int -> int -> int
(** Fold one value into a digest accumulator. *)

val digest_empty : int
(** Accumulator seed value. *)

val digest_ops : op list -> int
val digest_commands : host_cmd array -> int

(** {1 Physics replay} *)

type replay_stats = {
  writes : int;
  reads : int;
  erase_cycles : int;      (** block erases triggered by page rewrites *)
  failed_verifies : int;   (** pages that did not read back as written *)
  max_fluence : float;
  broken_cells : int;
}

val replay : Nand_block.t -> op list -> (replay_stats, string) result
(** Drive the block with the trace (mutated in place). A write to a page
    that already holds programmed cells triggers a block erase first
    (flash semantics: no in-place overwrite), counted in [erase_cycles].
    Each write is verified by reading back. *)
