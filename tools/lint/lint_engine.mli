(** The [gnrflash-lint] engine: typed-tree lint rules over the compiled
    [.cmt] files of the library tree.

    Intra-file rules (checked per module):
    - [L1] bare [failwith]/[invalid_arg]/[raise Invalid_argument|Failure]
      inside a solver module that should return a typed [Solver_error];
    - [L2] structural float equality ([=]/[<>] at type [float], detected
      via the typed tree) — use [Float.equal] or an epsilon comparison;
    - [L3] a call to a [Roots]/[Ode]/[Quadrature] entry point outside any
      telemetry-instrumented wrapper ([Telemetry.span]);
    - [L4] multiplying two raw [Constants.*] floats directly instead of
      going through the [Gnrflash_units] layer (unit laundering);
    - [L5] a non-shim library module without an [.mli];
    - [L6] a call to an adaptive WKB evaluator ([Wkb.action_integral] /
      [Wkb.transmission]) inside a [Quadrature] integrand — per-node
      adaptive recursion; build a {!Gnrflash_quantum.Wkb.Cache} once
      outside the integral instead.

    There is no [L7]: it flagged a hardcoded [~chunk] at a [Sweep.*] call
    site, and [Sweep] no longer takes one. There is no [L10]: it flagged
    marshal-unsafe values crossing the forked-process sweep tier, which no
    longer exists. The other rules keep their numbers, so existing
    suppression comments stay valid.

    Inter-procedural rules (the {!Callgraph} two-phase analyzer; these
    certify the bit-identical-to-serial determinism contract of the
    [Sweep]/[Pool] scale-out tier):
    - [L8] unsynchronized module-level mutable state ([ref], [Hashtbl],
      [Buffer], arrays, mutable record fields) written — or read while
      written elsewhere — in code reachable from a sweep worker closure,
      unless it goes through [Atomic], a [Mutex], or [Domain.DLS];
    - [L9] nondeterminism reachable from a sweep worker: the global
      [Random] PRNG, wall/process clocks ([Unix.gettimeofday],
      [Sys.time]), hash-order dependent [Hashtbl.fold]/[iter], physical
      equality on boxed values;
    - [L11] typed-error erasure: a wildcard pattern matching a
      [Solver_error.t] payload, or [Result.get_ok] on a solver result;
    - [L12] [Domain.DLS.new_key] in non-toplevel position (leaks one DLS
      slot per call and defeats the per-domain cache).

    Hot-loop rule (only in modules annotated with the floating attribute
    [[@@@gnrflash.hot]] — the FSM/service modules whose loops
    test_service's allocation pins gate):
    - [L13] a minor-heap allocation inside a [for]/[while] loop body: an
      allocating functional record update ([{ e with ... }]) or a closure
      ([fun]/[function]). Hoist the value out of the loop or mutate a
      preallocated structure instead.

    Dead-export rule (a second reachability over the same call graph, from
    the program roots of {!config.roots}):
    - [L14] a [val] of a library [.mli] that nothing reached from a root
      references: not the program files, and not a toplevel effect of the
      library ([let () = ...]). Tests are never roots, so a value only a
      test calls is dead weight. A [For_testing] submodule is exempt, and
      what its bodies call counts as reached. The finding sits on the
      [val] line of the [.mli].

    Any rule is suppressible with a comment on the finding's line or the
    line above: [(* lint: allow L<n> — reason *)] ([L5]: anywhere in the
    file). An allow that covers no finding of a rule it names is itself an
    unsuppressed finding of that rule, on the comment's closing line, so a
    suppression cannot outlive its finding; a rule that did not run ([L14]
    without roots) is not checked. The engine runs over a dune build tree: [root] is the directory
    that contains the compiled [lib/] (normally [_build/default]), where
    dune also copies the sources, so suppression comments are read from
    the same tree the [.cmt]s were built from. *)

type rule =
  | L1 | L2 | L3 | L4 | L5 | L6 | L8 | L9 | L11 | L12 | L13 | L14

val rule_id : rule -> string
(** ["L1"] … ["L14"] (no ["L7"], no ["L10"]). *)

val all_rules : rule list

val rule_of_string : string -> rule option
(** Parse ["L8"] / ["l8"] (case-insensitive prefix, any digit count). *)

type finding = {
  rule : rule;
  file : string;          (** path relative to [root], e.g. [lib/quantum/fn.ml] *)
  line : int;
  message : string;
  suppressed : bool;
  reason : string option; (** the reason text of the allow comment, if any *)
}

type config = {
  solver_basenames : string list;
  (** basenames of the modules [L1] holds to the typed-error contract *)
  l3_exempt_basenames : string list;
  (** the numeric kernels themselves — their internal mutual calls are the
      wrappers' own implementation, not uninstrumented call sites *)
  roots : string list;
  (** the L14 roots: source paths relative to [root], each a directory
      ([bin]) or a file; a scanned module under one is a root, and its own
      exports are not checked. Root directories outside [subdir] are read
      for their call graph only. *)
}

val default_config : config
(** The library's solver modules and numeric kernels; roots [bin],
    [bench], [examples] and [perfbench]. *)

val matched_names : string list
(** Every qualified library value the typed-tree rules match by name
    ([Gnrflash_numerics.Roots.brent], ...): the L3 entry points, the L6
    quadrature calls and adaptive WKB evaluators, and the span wrappers
    that satisfy L3 and open an L6 context. A name with no [val] in its
    library's [.mli] never matches, so its rule silently checks less. *)

type report = {
  findings : finding list;   (** sorted by file, line, rule *)
  files_scanned : int;
  roots_scanned : int;
      (** program modules read as L14 roots; [0] when none of their
          [.cmt]s was built, and then L14 did not run *)
  graph : (string * string list) list;
      (** the resolved call graph from the inter-procedural phase:
          node id -> sorted callee node ids (for tooling and tests) *)
}

val run : ?config:config -> root:string -> subdir:string -> unit -> report
(** Scan every [.cmt] under [root/subdir] (recursively, including dune's
    hidden [.objs] directories) and apply all twelve rules. L14 also
    needs the [.cmt]s of {!config.roots} (dune's [@check] alias of each
    root directory); without any, it does not run and [roots_scanned] is
    [0]. *)

val unsuppressed : report -> finding list
val suppressed : report -> finding list

val render_finding : finding -> string
(** ["file:line: [L2] message"], with a [suppressed (reason)] note. *)

val by_rule : report -> (rule * int * int) list
(** Per-rule [(rule, unsuppressed, suppressed)] counts, for all rules. *)

val filter_rules : rule list -> report -> report
(** Keep only findings of the given rules ([--rules L8,L9]). *)

val render_json : report -> string
(** Machine-readable report: file/line/rule/suppressed/reason/message per
    finding plus per-rule summary counts. *)

val locate_root : unit -> string
(** Walk up from the executable's directory to the nearest ancestor with a
    [lib/] subdirectory, preferring the dune context root
    ([_build/default]) where the [.cmt] files live.
    @raise Failure if no such ancestor exists. *)
