(** Effect classification tables shared by the inter-procedural analyzer
    ({!Callgraph}) and the rule engine ({!Lint_engine}).

    Everything here is a pure, per-identifier (or per-type) judgment; the
    graph construction and reachability live in {!Callgraph}. Identifiers
    are canonical dotted names as produced by {!normalize_name} on
    [Path.name] (e.g. ["Stdlib.Hashtbl.replace"],
    ["Gnrflash_parallel.Pool.run"]). *)

val normalize_name : string -> string
(** [Path.name] prints library-wrapped modules as [Lib__Module]; normalize
    to dotted form (and drop printer ['!'] marks) so one spelling covers
    both in-library and cross-library references. *)

val resolve : (string, string) Hashtbl.t -> string -> string
(** [resolve aliases name] rewrites the head segment of [name] through a
    local [module M = Other.Module] alias table. *)

(** How a module-level [let] right-hand side is classified for the L8
    shared-state rule. *)
type alloc_class =
  | Hazard of string
      (** allocates unsynchronized mutable state; the payload names the
          shape (["ref"], ["Hashtbl.t"], ...) for diagnostics *)
  | Synchronized
      (** allocates state with safe concurrent semantics ([Atomic],
          [Mutex], [Domain.DLS], ...) *)
  | Opaque  (** cannot tell from the allocation head alone *)

val classify_alloc : string -> alloc_class

val write_arg : string -> int option
(** [write_arg id] is [Some i] when a call to [id] mutates its [i]-th
    positional argument in place ([:=], [Hashtbl.replace], [Buffer.add_*],
    [Array.set], ...). *)

val nondet_of : string -> string option
(** [Some description] when referencing [id] injects nondeterminism into
    an otherwise deterministic computation: the global [Random] PRNG
    (the seeded [Random.State] API is exempt), wall/process clocks, and
    hash-order dependent [Hashtbl] folds. Physical equality is detected
    separately at application sites (it needs argument types). *)

val is_lock : string -> bool
(** Mutex acquisition — a function that locks is treated as a
    synchronization boundary and exempted from L8's shared-state checks. *)

val is_physical_eq : string -> bool
(** [Stdlib.==] / [Stdlib.!=]. *)

val is_boxed_type : Types.type_expr -> bool
(** Definitely-boxed judgement for the physical-equality check: true for
    records/variants/tuples/arrows, false for immediates ([int], [bool],
    [char], [unit]) and for type variables (can't tell). *)

val is_solver_error_name : string -> bool
(** The typed solver-error payload ([..Solver_error.t]), by canonical
    name. [Types.get_desc] does not expand abbreviations
    ([type error = Solver_error.t]), so the analyzer records candidate
    names in phase 1 and chases them through its own type-alias table in
    phase 2 before applying this test. *)

val is_result_name : string -> bool
(** The [result] type constructor (any spelling). *)

val entry_of : string -> string option
(** [Some short] when [id] is a parallel entry point whose worker-closure
    arguments start sweep-reachable code: [Sweep.map]/[mapi]/[init]/
    [map_list]/[grid] (library and umbrella spellings) and [Pool.run].
    [short] is the display name (e.g. ["Sweep.map"]). *)

val is_dls_new_key : string -> bool
(** [Domain.DLS.new_key] — the L12 target. *)
