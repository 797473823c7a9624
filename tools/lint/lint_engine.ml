type rule =
  | L1 | L2 | L3 | L4 | L5 | L6 | L8 | L9 | L11 | L12 | L13 | L14

let rule_id = function
  | L1 -> "L1"
  | L2 -> "L2"
  | L3 -> "L3"
  | L4 -> "L4"
  | L5 -> "L5"
  | L6 -> "L6"
  | L8 -> "L8"
  | L9 -> "L9"
  | L11 -> "L11"
  | L12 -> "L12"
  | L13 -> "L13"
  | L14 -> "L14"

let all_rules = [ L1; L2; L3; L4; L5; L6; L8; L9; L11; L12; L13; L14 ]

let rule_of_int = function
  | 1 -> Some L1
  | 2 -> Some L2
  | 3 -> Some L3
  | 4 -> Some L4
  | 5 -> Some L5
  | 6 -> Some L6
  | 8 -> Some L8
  | 9 -> Some L9
  | 11 -> Some L11
  | 12 -> Some L12
  | 13 -> Some L13
  | 14 -> Some L14
  | _ -> None

let rule_of_string s =
  let s = String.trim s in
  if String.length s >= 2 && (s.[0] = 'L' || s.[0] = 'l') then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some n -> rule_of_int n
    | None -> None
  else None

type finding = {
  rule : rule;
  file : string;
  line : int;
  message : string;
  suppressed : bool;
  reason : string option;
}

type config = {
  solver_basenames : string list;
  l3_exempt_basenames : string list;
  roots : string list;
}

let default_config =
  {
    solver_basenames =
      [ "roots.ml"; "ode.ml"; "transient.ml"; "program_erase.ml"; "variation.ml" ];
    l3_exempt_basenames = [ "roots.ml"; "ode.ml"; "quadrature.ml" ];
    roots = [ "bin"; "bench"; "examples"; "perfbench" ];
  }

type report = {
  findings : finding list;
  files_scanned : int;
  roots_scanned : int;
  graph : (string * string list) list;
}

(* ---------- canonical names ---------- *)

(* Shared with the inter-procedural analyzer (Effects/Callgraph). *)
let normalize_name = Effects.normalize_name

(* Local [module M = Other.Module] aliases, so [M.f] resolves to its
   canonical dotted name. *)
let collect_aliases (str : Typedtree.structure) =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_module mb -> (
          match (mb.mb_name.txt, mb.mb_expr.mod_desc) with
          | Some name, Tmod_ident (p, _) ->
              Hashtbl.replace tbl name (normalize_name (Path.name p))
          | _ -> ())
      | _ -> ())
    str.str_items;
  tbl

let resolve = Effects.resolve

(* ---------- suppression comments ---------- *)

type allow = {
  a_line : int;
  a_rules : rule list;
  a_reason : string option;
}

let is_rule_char c = c = 'L' || c = 'l' || ('0' <= c && c <= '9') || c = ',' || c = ' '

(* Parse one source line for "lint: allow L<n>[, L<m>...] — reason". *)
let allow_of_line lnum line =
  let find_sub hay needle from =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      if i + nn > nh then None
      else if String.sub hay i nn = needle then Some i
      else go (i + 1)
    in
    go from
  in
  match find_sub line "lint:" 0 with
  | None -> None
  | Some i -> (
      match find_sub line "allow" (i + 5) with
      | None -> None
      | Some j ->
          let start = j + 5 in
          let n = String.length line in
          (* rule-id segment: chars drawn from [L0-9, ] *)
          let stop = ref start in
          while !stop < n && is_rule_char line.[!stop] do
            incr stop
          done;
          let seg = String.sub line start (!stop - start) in
          let rules =
            String.split_on_char ',' seg
            |> List.concat_map (String.split_on_char ' ')
            |> List.filter_map (fun tok -> rule_of_string (String.trim tok))
          in
          if rules = [] then None
          else
            (* everything after the rule ids, minus the comment closer and
               any leading dash/em-dash bytes, is the reason *)
            let rest = String.sub line !stop (n - !stop) in
            let rest =
              match find_sub rest "*)" 0 with
              | Some k -> String.sub rest 0 k
              | None -> rest
            in
            let rest =
              let len = String.length rest in
              let k = ref 0 in
              let continue = ref true in
              while !continue && !k < len do
                if rest.[!k] = '-' || rest.[!k] = ' ' then incr k
                else if
                  (* UTF-8 em/en dash: e2 80 93|94 *)
                  !k + 2 < len
                  && rest.[!k] = '\xe2'
                  && rest.[!k + 1] = '\x80'
                  && (rest.[!k + 2] = '\x93' || rest.[!k + 2] = '\x94')
                then k := !k + 3
                else continue := false
              done;
              String.trim (String.sub rest !k (len - !k))
            in
            let reason = if rest = "" then None else Some rest in
            Some { a_line = lnum; a_rules = rules; a_reason = reason })

let read_lines path =
  try
    let ic = open_in_bin path in
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file ->
          close_in ic;
          List.rev acc
    in
    go []
  with Sys_error _ -> []

(* An allow comment may span several source lines; merge the span and
   attribute it to the line holding the comment closer, so a multi-line
   [(* lint: allow ... *)] block directly above a finding still counts as
   "the line above". *)
let allows_of_file path =
  let lines = Array.of_list (read_lines path) in
  let has_sub hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
    in
    go 0
  in
  let n = Array.length lines in
  let acc = ref [] in
  let i = ref 0 in
  while !i < n do
    let line = lines.(!i) in
    if has_sub line "lint:" then begin
      let buf = Buffer.create 128 in
      Buffer.add_string buf line;
      let j = ref !i in
      while (not (has_sub lines.(!j) "*)")) && !j < n - 1 do
        incr j;
        Buffer.add_char buf ' ';
        Buffer.add_string buf (String.trim lines.(!j))
      done;
      (match allow_of_line (!j + 1) (Buffer.contents buf) with
       | Some a -> acc := a :: !acc
       | None -> ());
      i := !j + 1
    end
    else incr i
  done;
  List.rev !acc

(* A finding is suppressed by an allow on its own line or the line above;
   L5 (whole-file) by an allow anywhere. *)
let covers a ~line ~rule =
  List.mem rule a.a_rules && (rule = L5 || a.a_line = line || a.a_line = line - 1)

let suppression allows ~line ~rule =
  match List.find_opt (fun a -> covers a ~line ~rule) allows with
  | Some a -> Some (Option.value a.a_reason ~default:"")
  | None -> None

(* ---------- typed-tree checks ---------- *)

let l3_targets =
  let mk m fns = List.map (fun f -> "Gnrflash_numerics." ^ m ^ "." ^ f) fns in
  mk "Roots" [ "brent"; "bracket_root" ]
  @ mk "Ode" [ "integrate" ]
  @ mk "Quadrature" [ "adaptive_simpson"; "gauss_legendre" ]

(* L6 context: quadrature drivers whose argument subtrees (most importantly
   the inline integrand lambda) count as "inside an integral". *)
let quad_heads =
  List.map
    (fun f -> "Gnrflash_numerics.Quadrature." ^ f)
    [ "adaptive_simpson"; "gauss_legendre" ]

(* L6 targets: adaptive WKB evaluators. Calling one per quadrature node
   re-runs an adaptive Simpson recursion for every energy; the memoized
   closed form ({!Gnrflash_quantum.Wkb.Cache}) does the same work once per
   barrier. *)
let l6_targets =
  [ "Gnrflash_quantum.Wkb.action_integral"; "Gnrflash_quantum.Wkb.transmission" ]

let span_wrappers = [ "Gnrflash_telemetry.Telemetry.span" ]

let matched_names =
  List.sort_uniq compare (l3_targets @ quad_heads @ l6_targets @ span_wrappers)

let is_float_type ty =
  match Types.get_desc ty with
  | Tconstr (p, [], _) -> Path.same p Predef.path_float
  | _ -> false

type raw_finding = { r_rule : rule; r_line : int; r_message : string }

(* L13 scope: a module opts into the hot-loop allocation rule with the
   floating attribute [[@@@gnrflash.hot]] — the FSM/service modules whose
   loops test_service's words-per-op pin gates. *)
let hot_attribute = "gnrflash.hot"

let is_hot_module (str : Typedtree.structure) =
  List.exists
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_attribute a -> a.Parsetree.attr_name.txt = hot_attribute
      | _ -> false)
    str.str_items

let check_structure ~config ~basename (str : Typedtree.structure) =
  let aliases = collect_aliases str in
  let out = ref [] in
  let span_depth = ref 0 in
  let add rule loc message =
    let line = loc.Location.loc_start.Lexing.pos_lnum in
    out := { r_rule = rule; r_line = line; r_message = message } :: !out
  in
  let canon_of (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> Some (resolve aliases (normalize_name (Path.name p)))
    | _ -> None
  in
  let is_span_head (e : Typedtree.expression) =
    match canon_of e with
    | Some c -> List.mem c span_wrappers
    | None -> false
  in
  (* The application spine of [Tel.span name @@ fun () -> ...]: the typer
     rewrites [f @@ x] into the application [(f) x], so the thunk hangs off
     an apply whose head is itself the partial application [Tel.span name]
     — walk the spine down to the ident. An unsimplified [Stdlib.@@] (e.g.
     [( @@ )] used as a value) is handled via its first argument. *)
  let rec head_is_span (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_apply (fn, args) -> (
        is_span_head fn || head_is_span fn
        ||
        match canon_of fn with
        | Some "Stdlib.@@" -> (
            match args with (_, Some lhs) :: _ -> head_is_span lhs | _ -> false)
        | _ -> false)
    | _ -> is_span_head e
  in
  let enters_span (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_apply (fn, _) -> is_span_head fn || head_is_span fn
    | _ -> false
  in
  (* An application of one of the Quadrature drivers: its argument subtrees
     (notably the integrand closure) are "inside an integral" for L6. *)
  let integrand_depth = ref 0 in
  let enters_quad (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_apply (fn, _) -> (
        match canon_of fn with
        | Some c -> List.mem c quad_heads
        | None -> false)
    | _ -> false
  in
  let in_solver = List.mem basename config.solver_basenames in
  let l3_scoped = not (List.mem basename config.l3_exempt_basenames) in
  let check_apply (fn : Typedtree.expression)
      (args : (Asttypes.arg_label * Typedtree.expression option) list)
      (loc : Location.t) =
    match canon_of fn with
    | None -> ()
    | Some cf ->
        (* L1: escape hatches in solver modules *)
        (if in_solver then
           match cf with
           | "Stdlib.failwith" | "Stdlib.invalid_arg" ->
               add L1 loc
                 (Printf.sprintf
                    "bare %s in a solver module — return a typed Solver_error instead"
                    (Filename.extension cf |> fun s ->
                     String.sub s 1 (String.length s - 1)))
           | "Stdlib.raise" | "Stdlib.raise_notrace" -> (
               match args with
               | (_, Some { exp_desc = Texp_construct (_, cd, _); _ }) :: _
                 when cd.cstr_name = "Invalid_argument" || cd.cstr_name = "Failure" ->
                   add L1 loc
                     (Printf.sprintf
                        "raise %s in a solver module — return a typed Solver_error \
                         instead"
                        cd.cstr_name)
               | _ -> ())
           | _ -> ());
        (* L2: structural equality at float type, or polymorphic equality
           against the literal [None] — the latter drags the whole payload
           (errors, closures, floats) through [compare] when only the
           constructor matters *)
        (match cf with
        | "Stdlib.=" | "Stdlib.<>" ->
            let float_arg =
              List.exists
                (fun (_, a) ->
                  match a with
                  | Some (e : Typedtree.expression) -> is_float_type e.exp_type
                  | None -> false)
                args
            in
            let none_arg =
              List.exists
                (fun (_, a) ->
                  match a with
                  | Some ({ exp_desc = Texp_construct (_, cd, []); _ } :
                           Typedtree.expression) ->
                      cd.Types.cstr_name = "None"
                  | _ -> false)
                args
            in
            let op = if cf = "Stdlib.=" then "=" else "<>" in
            if float_arg then
              add L2 loc
                (Printf.sprintf
                   "float equality (%s) — use Float.equal or an epsilon comparison"
                   op)
            else if none_arg then
              add L2 loc
                (Printf.sprintf
                   "polymorphic equality against None (%s) — use \
                    Option.is_none / Option.is_some"
                   op)
        | _ -> ());
        (* L3: uninstrumented solver entry points *)
        if l3_scoped && !span_depth = 0 && List.mem cf l3_targets then
          add L3 loc
            (Printf.sprintf
               "call to %s outside any Telemetry.span — wrap the call site so its \
                work is attributed"
               cf);
        (* L6: adaptive WKB evaluation inside a quadrature integrand *)
        if !integrand_depth > 0 && List.mem cf l6_targets then
          add L6 loc
            (Printf.sprintf
               "%s inside a quadrature integrand — adaptive WKB re-runs per \
                node; build a Wkb.Cache once outside the integral and call \
                Wkb.Cache.transmission per energy"
               cf);
        (* L4: multiplying two raw constants without going through Units *)
        if basename <> "constants.ml" && cf = "Stdlib.*." then
          let is_constant_ident (a : Typedtree.expression option) =
            match a with
            | Some e -> (
                match canon_of e with
                | Some name -> (
                    match List.rev (String.split_on_char '.' name) with
                    | _ :: m :: _ -> m = "Constants"
                    | _ -> false)
                | None -> false)
            | None -> false
          in
          match args with
          | [ (_, a1); (_, a2) ] when is_constant_ident a1 && is_constant_ident a2 ->
              add L4 loc
                "product of two raw Constants.* floats — use the typed \
                 Gnrflash_units layer (unit laundering)"
          | _ -> ()
  in
  (* L13 state: [loop_stack] holds, for each enclosing for/while loop,
     the closure-nesting depth at its entry. An allocation is "directly in
     a loop body" when the current [fun_depth] equals the innermost loop's
     recorded depth — allocations inside a nested closure are charged to
     the (already flagged) closure, not reported again. *)
  let hot = is_hot_module str in
  let fun_depth = ref 0 in
  let loop_stack = ref [] in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_apply (fn, args) -> check_apply fn args e.exp_loc
    | _ -> ());
    (* L13: minor-heap allocation directly inside a hot-module loop body *)
    (if hot then
       match (e.exp_desc, !loop_stack) with
       | Texp_record { extended_expression = Some _; _ }, d :: _
         when !fun_depth = d ->
           add L13 e.exp_loc
             "allocating functional record update ({ e with ... }) in a hot \
              loop — write the mutable fields in place or hoist the fresh \
              record out of the loop"
       | Texp_function _, d :: _ when !fun_depth = d ->
           add L13 e.exp_loc
             "closure allocated in a hot loop — hoist the function (or the \
              combinator call capturing it) out of the loop"
       | _ -> ());
    let in_span = enters_span e and in_quad = enters_quad e in
    if in_span then incr span_depth;
    if in_quad then incr integrand_depth;
    (match e.exp_desc with
    | Texp_for (_, _, lo, hi, _, body) ->
        (* bounds evaluate once — only the body is per-iteration *)
        sub.Tast_iterator.expr sub lo;
        sub.Tast_iterator.expr sub hi;
        loop_stack := !fun_depth :: !loop_stack;
        sub.Tast_iterator.expr sub body;
        loop_stack := List.tl !loop_stack
    | Texp_while (cond, body) ->
        (* the condition re-evaluates every iteration: hot like the body *)
        loop_stack := !fun_depth :: !loop_stack;
        sub.Tast_iterator.expr sub cond;
        sub.Tast_iterator.expr sub body;
        loop_stack := List.tl !loop_stack
    | Texp_function _ ->
        incr fun_depth;
        Tast_iterator.default_iterator.expr sub e;
        decr fun_depth
    | _ -> Tast_iterator.default_iterator.expr sub e);
    if in_quad then decr integrand_depth;
    if in_span then decr span_depth
  in
  let iter = { Tast_iterator.default_iterator with expr } in
  iter.structure iter str;
  List.rev !out

(* L5: a module without an .mli, unless it is a pure re-export shim
   (only opens/includes/module-aliases/attributes at the top level). *)
let is_shim (str : Typedtree.structure) =
  List.for_all
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_attribute _ | Tstr_open _ | Tstr_include _ | Tstr_modtype _ -> true
      | Tstr_module mb -> ( match mb.mb_expr.mod_desc with Tmod_ident _ -> true | _ -> false)
      | _ -> false)
    str.str_items

(* ---------- filesystem walking ---------- *)

let rec collect_cmts dir acc =
  match Sys.readdir dir with
  | entries ->
      Array.fold_left
        (fun acc entry ->
          let path = Filename.concat dir entry in
          if Sys.is_directory path then collect_cmts path acc
          else if Filename.check_suffix entry ".cmt" then path :: acc
          else acc)
        acc entries
  | exception Sys_error _ -> acc

let raw_of_callgraph (rw : Callgraph.raw) =
  match rule_of_int rw.rw_rule with
  | Some rule ->
      Some { r_rule = rule; r_line = rw.rw_line; r_message = rw.rw_message }
  | None -> None

let is_root config src =
  List.exists
    (fun r ->
      src = r
      || String.length src > String.length r
         && String.sub src 0 (String.length r + 1) = r ^ "/")
    config.roots

let run ?(config = default_config) ~root ~subdir () =
  let cmts = collect_cmts (Filename.concat root subdir) [] in
  let seen = Hashtbl.create 64 in
  let files = ref 0 in
  (* per-file raw findings: the intra-file rules (L1–L6), the analyzer's
     direct findings (L11/L12), then — once every summary is in — the
     reachability findings (L8/L9) from phase 2 *)
  let per_file : (string, raw_finding list ref) Hashtbl.t = Hashtbl.create 64 in
  let raws_for src =
    match Hashtbl.find_opt per_file src with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.add per_file src r;
        r
  in
  let summaries = ref [] in
  let lib_sources = ref [] in
  let root_summaries = ref [] in
  let lib_summaries = ref [] in
  let exports = ref [] in
  List.iter
    (fun cmt_path ->
      match Cmt_format.read_cmt cmt_path with
      | exception _ -> ()
      | infos -> (
          match (infos.cmt_annots, infos.cmt_sourcefile) with
          | Implementation str, Some src
            when Filename.check_suffix src ".ml" && not (Hashtbl.mem seen src) ->
              Hashtbl.add seen src ();
              lib_sources := src :: !lib_sources;
              incr files;
              let basename = Filename.basename src in
              let raw = check_structure ~config ~basename str in
              let raw =
                if
                  (not (Sys.file_exists (Filename.concat root (src ^ "i"))))
                  && not (is_shim str)
                then
                  raw
                  @ [
                      {
                        r_rule = L5;
                        r_line = 1;
                        r_message =
                          "missing .mli for a non-shim library module — document \
                           and seal its interface";
                      };
                    ]
                else raw
              in
              let summary =
                Callgraph.extract
                  ~modname:(normalize_name infos.cmt_modname)
                  ~file:src str
              in
              summaries := summary :: !summaries;
              if is_root config src then root_summaries := summary :: !root_summaries
              else begin
                lib_summaries := summary :: !lib_summaries;
                let cmti = Filename.remove_extension cmt_path ^ ".cmti" in
                match Cmt_format.read_cmt cmti with
                | { cmt_annots = Interface sg; cmt_sourcefile = Some mli; _ } ->
                    exports :=
                      Callgraph.exports ~modname:summary.fs_modname ~file:mli sg
                      @ !exports
                | _ | (exception _) -> ()
              end;
              let raw =
                raw
                @ List.filter_map raw_of_callgraph summary.Callgraph.fs_direct
              in
              let cell = raws_for src in
              cell := !cell @ raw
          | _ -> ()))
    cmts;
  (* the program files outside [subdir] are only read, as L14 roots *)
  List.iter
    (fun cmt_path ->
      match Cmt_format.read_cmt cmt_path with
      | {
       cmt_annots = Implementation str;
       cmt_sourcefile = Some src;
       cmt_modname;
       _;
      }
        when Filename.check_suffix src ".ml" && not (Hashtbl.mem seen src) ->
          Hashtbl.add seen src ();
          root_summaries :=
            Callgraph.extract ~modname:(normalize_name cmt_modname) ~file:src str
            :: !root_summaries
      | _ | (exception _) -> ())
    (List.concat_map
       (fun r -> collect_cmts (Filename.concat root r) [])
       config.roots);
  let analysis = Callgraph.analyze (List.rev !summaries) in
  List.iter
    (fun (src, rw) ->
      match raw_of_callgraph rw with
      | Some r ->
          let cell = raws_for src in
          cell := !cell @ [ r ]
      | None -> ())
    analysis.Callgraph.an_findings;
  (* without a single root .cmt every export would look dead: L14 only
     runs when the roots were built (report.roots_scanned says so) *)
  let roots_scanned = List.length !root_summaries in
  if roots_scanned > 0 then
    Callgraph.dead_exports ~roots:!root_summaries (List.rev !lib_summaries)
      (List.rev !exports)
    |> List.iter (fun (ex : Callgraph.export) ->
           let cell = raws_for ex.ex_file in
           cell :=
             !cell
             @ [
                 {
                   r_rule = L14;
                   r_line = ex.ex_line;
                   r_message =
                     Printf.sprintf
                       "exported value `%s` is reached from no program root \
                        (%s, or a toplevel effect of the library) — delete \
                        it, drop it from the .mli, or move test scaffolding \
                        into For_testing"
                       (Callgraph.short_id ex.ex_id)
                       (String.concat ", " config.roots);
                 };
               ]);
  (* every scanned source and interface, findings or not: an allow that
     covers no finding of its rule is itself a finding, unless the rule
     did not run (L14 without roots) *)
  let sources =
    List.concat_map
      (fun src ->
        let mli = src ^ "i" in
        if Sys.file_exists (Filename.concat root mli) then [ src; mli ] else [ src ])
      !lib_sources
    @ Hashtbl.fold (fun src _ acc -> src :: acc) per_file []
    |> List.sort_uniq compare
  in
  let findings = ref [] in
  List.iter
    (fun src ->
      let raws = match Hashtbl.find_opt per_file src with Some c -> !c | None -> [] in
      let allows = allows_of_file (Filename.concat root src) in
      List.iter
        (fun r ->
          let supp = suppression allows ~line:r.r_line ~rule:r.r_rule in
          findings :=
            {
              rule = r.r_rule;
              file = src;
              line = r.r_line;
              message = r.r_message;
              suppressed = supp <> None;
              reason = (match supp with Some "" -> None | other -> other);
            }
            :: !findings)
        raws;
      List.iter
        (fun a ->
          List.iter
            (fun rule ->
              let ran = rule <> L14 || roots_scanned > 0 in
              if
                ran
                && not
                     (List.exists
                        (fun r -> r.r_rule = rule && covers a ~line:r.r_line ~rule)
                        raws)
              then
                findings :=
                  {
                    rule;
                    file = src;
                    line = a.a_line;
                    message =
                      Printf.sprintf
                        "this allow comment suppresses no %s finding — \
                         delete it, or drop %s from its rule list"
                        (rule_id rule) (rule_id rule);
                    suppressed = false;
                    reason = None;
                  }
                  :: !findings)
            a.a_rules)
        allows)
    sources;
  let ordered =
    List.sort
      (fun a b ->
        match compare a.file b.file with
        | 0 -> ( match compare a.line b.line with 0 -> compare a.rule b.rule | c -> c)
        | c -> c)
      !findings
  in
  {
    findings = ordered;
    files_scanned = !files;
    roots_scanned;
    graph = analysis.Callgraph.an_graph;
  }

let unsuppressed r = List.filter (fun f -> not f.suppressed) r.findings
let suppressed r = List.filter (fun f -> f.suppressed) r.findings

let render_finding f =
  Printf.sprintf "%s:%d: [%s] %s%s" f.file f.line (rule_id f.rule) f.message
    (if f.suppressed then
       match f.reason with
       | Some reason -> Printf.sprintf "  (suppressed: %s)" reason
       | None -> "  (suppressed)"
     else "")

(* ---------- report post-processing ---------- *)

let by_rule r =
  List.map
    (fun rule ->
      let mine = List.filter (fun f -> f.rule = rule) r.findings in
      let supp, unsupp = List.partition (fun f -> f.suppressed) mine in
      (rule, List.length unsupp, List.length supp))
    all_rules

let filter_rules rules r =
  { r with findings = List.filter (fun f -> List.mem f.rule rules) r.findings }

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let render_json r =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "{\"files_scanned\":%d,\"roots_scanned\":%d,\"rules_checked\":%d,"
       r.files_scanned r.roots_scanned (List.length all_rules));
  Buffer.add_string b
    (Printf.sprintf "\"findings\":%d,\"suppressed\":%d,"
       (List.length (unsuppressed r))
       (List.length (suppressed r)));
  Buffer.add_string b "\"by_rule\":{";
  List.iteri
    (fun i (rule, unsupp, supp) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\"%s\":{\"unsuppressed\":%d,\"suppressed\":%d}"
           (rule_id rule) unsupp supp))
    (by_rule r);
  Buffer.add_string b "},\"results\":[";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"file\":\"%s\",\"line\":%d,\"rule\":\"%s\",\"suppressed\":%b,\
            \"reason\":%s,\"message\":\"%s\"}"
           (json_escape f.file) f.line (rule_id f.rule) f.suppressed
           (match f.reason with
           | Some reason -> Printf.sprintf "\"%s\"" (json_escape reason)
           | None -> "null")
           (json_escape f.message)))
    r.findings;
  Buffer.add_string b "]}";
  Buffer.contents b

(* ---------- root discovery ---------- *)

let rec dir_has_cmt dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> false
  | entries ->
      Array.exists
        (fun entry ->
          let path = Filename.concat dir entry in
          if Filename.check_suffix entry ".cmt" then true
          else Sys.is_directory path && dir_has_cmt path)
        entries

let locate_root () =
  let exe = Sys.executable_name in
  let exe = if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe else exe in
  let has_lib d =
    let lib = Filename.concat d "lib" in
    Sys.file_exists lib && Sys.is_directory lib
  in
  let rec up d = if has_lib d then Some d else
    let parent = Filename.dirname d in
    if parent = d then None else up parent
  in
  match up (Filename.dirname exe) with
  | None -> failwith "gnrflash-lint: no lib/ ancestor of the executable"
  | Some d ->
      if dir_has_cmt (Filename.concat d "lib") then d
      else
        let ctx = Filename.concat (Filename.concat d "_build") "default" in
        if has_lib ctx && dir_has_cmt (Filename.concat ctx "lib") then ctx else d
