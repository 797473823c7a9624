(** The two-phase inter-procedural analyzer behind rules L8, L9, L11, L12
    and L14.

    Phase 1 ({!extract}) walks one [.cmt] typedtree and produces a
    {!file_summary}: a module-qualified node per function (top-level and
    nested [let]-bound), a per-node effect sink (referenced identifiers,
    in-place writes, nondeterminism sources, lock acquisition), the
    module-level mutable-state allocations ([Hazard]s), every
    [Sweep]/[Pool] call site with the effects of its inline worker
    closures, and the direct (non-reachability) findings L11/L12.

    Phase 2 ({!analyze}) merges all summaries, resolves reference
    candidates against the global node/hazard tables, and runs a BFS from
    each call site's worker roots to report L8 (unsynchronized shared
    state) and L9 (nondeterminism).
    {!dead_exports} runs a second reachability, from the program roots,
    for L14 (library exports nothing reaches).

    Documented approximations (kept deliberately simple — the analyzer
    must never crash on real code):
    - first-class modules and functor parameters do not resolve; calls
      through them are silently unreachable (no false positives, possible
      false negatives);
    - a node that acquires a [Mutex] is treated as a synchronization
      boundary: its own shared-state accesses are exempt from L8, but the
      exemption does not propagate to its callees;
    - aliases of mutable globals through intermediate [let]s escape the
      hazard table. *)

type nondet = { nd_what : string; nd_line : int }

type sink = {
  mutable sk_refs : (string list * int) list;
      (** referenced candidates (first match wins at resolution), line *)
  mutable sk_writes : (string list * int) list;
      (** in-place mutation targets, line *)
  mutable sk_nondet : nondet list;
  mutable sk_locks : bool;
}

type node = { nd_id : string; nd_file : string; nd_line : int; nd_sink : sink }

type hazard = {
  hz_id : string;
  hz_file : string;
  hz_line : int;
  hz_kind : string;
}

type site = {
  st_file : string;
  st_line : int;
  st_entry : string;  (** display name, e.g. ["Sweep.map"] *)
  st_roots : sink;    (** effects of inline worker closures + named roots *)
  st_owner : string option;
      (** the innermost enclosing node or toplevel value, [None] at a
          toplevel effect (L14 attributes the worker's references to it) *)
}

(** A raw finding before suppression handling; [rw_rule] is the integer
    rule id (8–12). *)
type raw = { rw_rule : int; rw_line : int; rw_message : string }

type file_summary = {
  fs_file : string;
  fs_modname : string;
  fs_nodes : node list;
  fs_values : node list;
      (** named non-function toplevel bindings; L14 follows their
          references, L8 and L9 treat them as module-load initialization *)
  fs_init : sink;  (** toplevel effects ([let () = ...]): L14 roots *)
  fs_modaliases : (string * string) list;
      (** [module M = Target] aliases, functor instances and
          [include Target], keyed by the full module path *)
  fs_hazards : hazard list;
  fs_sites : site list;
  fs_direct : raw list;  (** L12, already attributed to lines *)
  fs_tyaliases : (string * string list) list;
      (** [type name = target] manifests (nullary constructors only), so
          phase 2 can chase abbreviations like [Transient.error] back to
          [Solver_error.t] across files *)
  fs_maybe_l11 : (string list * raw) list;
      (** candidate L11 findings: the type-name candidates of the erased
          value; reported only when they resolve to [Solver_error.t]
          through {!analysis.an_graph}'s companion type-alias table *)
}

val extract :
  modname:string -> file:string -> Typedtree.structure -> file_summary

type analysis = {
  an_graph : (string * string list) list;
      (** resolved call graph: node id -> sorted callee node ids *)
  an_written : string list;
      (** hazard ids written from at least one function (module-load
          initialization writes are exempt) *)
  an_findings : (string * raw) list;
      (** (file, finding) for L8/L9 and abbreviation-resolved L11 *)
}

val analyze : file_summary list -> analysis

val short_id : string -> string
(** Display name of a node id: drops the library segment of a 3+-segment
    id ([Gnrflash_quantum.Fn.current] -> [Fn.current]). *)

(** An exported value of a library interface: canonical dotted id (as
    {!node.nd_id}), the [.mli] it is declared in, and its line there. *)
type export = { ex_id : string; ex_file : string; ex_line : int }

val exports : modname:string -> file:string -> Typedtree.signature -> export list
(** The [val]s of a [.cmti] signature, nested [sig ... end] submodules
    included. A [For_testing] submodule is skipped: test scaffolding is
    exempt from L14. *)

val dead_exports :
  roots:file_summary list -> file_summary list -> export list -> export list
(** L14: the exports no root reaches. The roots are every node, value,
    sweep site and toplevel effect of the [roots] summaries (the program
    files), plus the toplevel effects of the library [summaries] and the
    bodies of their [For_testing] submodules (exempt test support keeps
    what it calls).
    References resolve through module aliases and [include]s across
    files, so a call through an umbrella re-export reaches the canonical
    definition. A reference that resolves to no definition still marks
    the names it mentions as reached (conservative for externals and
    re-exports). *)
