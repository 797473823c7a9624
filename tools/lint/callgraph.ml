(* Phase 1: per-.cmt extraction of a module-qualified call graph with
   per-function effect sinks. Phase 2: reachability from every parallel
   call site's worker closures. See callgraph.mli for the approximations
   this walker deliberately makes.

   The walker must never crash on real code: every unhandled construct
   falls back to [Tast_iterator.default_iterator] (conservative recursion)
   or to an unresolved candidate list (conservatively dropped). *)

module E = Effects

type nondet = { nd_what : string; nd_line : int }

type sink = {
  mutable sk_refs : (string list * int) list;
  mutable sk_writes : (string list * int) list;
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
  st_entry : string;
  st_roots : sink;
  st_owner : string option;
}

type raw = { rw_rule : int; rw_line : int; rw_message : string }

type file_summary = {
  fs_file : string;
  fs_modname : string;
  fs_nodes : node list;
  fs_values : node list;
  fs_init : sink;
  fs_modaliases : (string * string) list;
  fs_hazards : hazard list;
  fs_sites : site list;
  fs_direct : raw list;
  fs_tyaliases : (string * string list) list;
  fs_maybe_l11 : (string list * raw) list;
}

let fresh_sink () =
  { sk_refs = []; sk_writes = []; sk_nondet = []; sk_locks = false }

let line_of loc = loc.Location.loc_start.Lexing.pos_lnum

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Candidates rooted in the stdlib or compiler internals never name one of
   our nodes or hazards; dropping them keeps the sinks small. *)
let keep_cand c =
  not (has_prefix ~prefix:"Stdlib." c || has_prefix ~prefix:"Camlinternal" c)

let is_arrow ty =
  match Types.get_desc ty with
  | Tarrow _ -> true
  | Tpoly (t, _) -> (
      match Types.get_desc t with Tarrow _ -> true | _ -> false)
  | _ -> false

(* ---------- phase 1 ---------- *)

type scope_entry = Snode of string | Svalue

(* [Fvalue] is a named non-function toplevel binding, [Finit] a toplevel
   effect ([let () = ...]); neither is a call-graph node for L8/L9, so
   module-load writes stay exempt there, but L14 follows their references *)
type frame = Fnode of string | Fvalue of string | Finit | Froots

let extract ~modname ~file (str : Typedtree.structure) =
  let aliases : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let local_modules : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let scope : (string, scope_entry) Hashtbl.t = Hashtbl.create 32 in
  let nodes = ref [] in
  let values = ref [] in
  let init = fresh_sink () in
  let modaliases = ref [] in
  let hazards = ref [] in
  let sites = ref [] in
  let direct = ref [] in
  let tyaliases = ref [] in
  let maybe_l11 = ref [] in
  let prefixes = ref [ modname ] in
  let cur_prefix () = List.hd !prefixes in
  (* [Froots] marks a worker-roots sink, whose nested lets are attributed
     inline rather than as nodes *)
  let stack : (frame * sink) list ref = ref [] in
  let discard = fresh_sink () in
  let top_sink () = match !stack with (_, s) :: _ -> s | [] -> discard in
  let owner_of_stack () =
    List.find_map
      (function (Fnode nid | Fvalue nid), _ -> Some nid | _ -> None)
      !stack
  in
  let with_frame frame sink f =
    stack := (frame, sink) :: !stack;
    f ();
    stack := List.tl !stack
  in
  let fn_depth = ref 0 in

  let add_direct rule loc msg =
    direct := { rw_rule = rule; rw_line = line_of loc; rw_message = msg } :: !direct
  in
  let add_ref cands l =
    let cands = List.filter keep_cand cands in
    if cands <> [] then begin
      let s = top_sink () in
      if not (List.exists (fun (c, _) -> c = cands) s.sk_refs) then
        s.sk_refs <- (cands, l) :: s.sk_refs
    end
  in
  let add_write cands l =
    let cands = List.filter keep_cand cands in
    if cands <> [] then begin
      let s = top_sink () in
      if not (List.exists (fun (c, l') -> c = cands && l' = l) s.sk_writes)
      then s.sk_writes <- (cands, l) :: s.sk_writes
    end
  in
  let add_nondet what l =
    let s = top_sink () in
    if
      not
        (List.exists
           (fun n -> n.nd_what = what && n.nd_line = l)
           s.sk_nondet)
    then s.sk_nondet <- { nd_what = what; nd_line = l } :: s.sk_nondet
  in

  let qualify_local s =
    match String.index_opt s '.' with
    | Some i when Hashtbl.mem local_modules (String.sub s 0 i) ->
        Hashtbl.find local_modules (String.sub s 0 i)
        ^ String.sub s i (String.length s - i)
    | _ -> s
  in
  let canon_path p =
    match p with
    | Path.Pident id -> (
        let name = Ident.name id in
        match Hashtbl.find_opt scope name with
        | Some (Snode nid) -> [ nid ]
        | Some Svalue -> []
        | None -> List.map (fun pref -> pref ^ "." ^ name) !prefixes)
    | _ -> [ qualify_local (E.resolve aliases (E.normalize_name (Path.name p))) ]
  in
  let head_canons (fn : Typedtree.expression) =
    match fn.exp_desc with Texp_ident (p, _, _) -> canon_path p | _ -> []
  in
  (* candidate canonical names for a type path; like [canon_path] but
     without the value scope (types live in their own namespace) *)
  let ty_path_cands p =
    match p with
    | Path.Pident id ->
        List.map (fun pref -> pref ^ "." ^ Ident.name id) !prefixes
    | _ -> [ qualify_local (E.resolve aliases (E.normalize_name (Path.name p))) ]
  in
  (* candidate names for a nullary type constructor ([Solver_error.t] and
     its abbreviations take no parameters); [get_desc] does not expand
     abbreviations, so the names are chased through the global type-alias
     table in phase 2 *)
  let ty_cands ty =
    match Types.get_desc ty with
    | Tconstr (p, [], _) -> ty_path_cands p
    | _ -> []
  in
  let add_maybe_l11 cands loc msg =
    if cands <> [] then
      maybe_l11 :=
        (cands, { rw_rule = 11; rw_line = line_of loc; rw_message = msg })
        :: !maybe_l11
  in
  let rec base_ident (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> Some (canon_path p)
    | Texp_field (e', _, _) -> base_ident e'
    | _ -> None
  in

  (* generic pattern walks (value and computation patterns) *)
  let rec pat_names : type k. k Typedtree.general_pattern -> string list =
   fun p ->
    match p.pat_desc with
    | Tpat_var (id, _) -> [ Ident.name id ]
    | Tpat_alias (sub, id, _) -> Ident.name id :: pat_names sub
    | Tpat_tuple ps | Tpat_array ps -> List.concat_map pat_names ps
    | Tpat_construct (_, _, ps, _) -> List.concat_map pat_names ps
    | Tpat_variant (_, Some p', _) -> pat_names p'
    | Tpat_record (fs, _) -> List.concat_map (fun (_, _, p') -> pat_names p') fs
    | Tpat_lazy p' -> pat_names p'
    | Tpat_or (a, b, _) -> pat_names a @ pat_names b
    | Tpat_value v -> pat_names (v :> Typedtree.value Typedtree.general_pattern)
    | Tpat_exception p' -> pat_names p'
    | _ -> []
  in
  (* L11: a wildcard erasing a typed Solver_error, unless it sits under an
     alias ([Error _ as e]) that visibly rebinds the value *)
  let rec scan_pat : type k. under_alias:bool -> k Typedtree.general_pattern -> unit
      =
   fun ~under_alias p ->
    (match p.pat_desc with
    | Tpat_any when not under_alias ->
        add_maybe_l11 (ty_cands p.pat_type) p.pat_loc
          "wildcard pattern erases a typed Solver_error — match or bind the \
           error so the failure class stays observable (e.g. count it in \
           telemetry before falling back)"
    | _ -> ());
    match p.pat_desc with
    | Tpat_alias (sub, _, _) -> scan_pat ~under_alias:true sub
    | Tpat_tuple ps | Tpat_array ps -> List.iter (scan_pat ~under_alias) ps
    | Tpat_construct (_, _, ps, _) -> List.iter (scan_pat ~under_alias) ps
    | Tpat_variant (_, Some p', _) -> scan_pat ~under_alias p'
    | Tpat_record (fs, _) ->
        List.iter (fun (_, _, p') -> scan_pat ~under_alias p') fs
    | Tpat_lazy p' -> scan_pat ~under_alias p'
    | Tpat_or (a, b, _) ->
        scan_pat ~under_alias a;
        scan_pat ~under_alias b
    | Tpat_value v ->
        scan_pat ~under_alias (v :> Typedtree.value Typedtree.general_pattern)
    | Tpat_exception p' -> scan_pat ~under_alias p'
    | _ -> ()
  in

  let is_fun (e : Typedtree.expression) =
    match e.exp_desc with Texp_function _ -> true | _ -> false
  in
  (* a binding of a single name: [let x = ...] is [Tpat_var], but the
     annotated form [let x : ty = ...] compiles to
     [Tpat_alias (Tpat_any, x)] *)
  let bound_var (p : Typedtree.pattern) =
    match p.pat_desc with
    | Tpat_var (id, _) -> Some id
    | Tpat_alias ({ pat_desc = Tpat_any; _ }, id, _) -> Some id
    | _ -> None
  in
  let alloc_class_of (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_apply (fn, _) -> (
        match head_canons fn with [ h ] -> E.classify_alloc h | _ -> E.Opaque)
    | Texp_record { fields; _ } ->
        if
          Array.exists
            (fun ((ld : Types.label_description), _) ->
              match ld.lbl_mut with Asttypes.Mutable -> true | _ -> false)
            fields
        then E.Hazard "record with mutable fields"
        else E.Opaque
    | Texp_array (_ :: _) -> E.Hazard "array literal"
    | _ -> E.Opaque
  in

  let expr (sub : Tast_iterator.iterator) (e : Typedtree.expression) =
    let iter_e e' = sub.Tast_iterator.expr sub e' in
    let walk_cases : type k. k Typedtree.case list -> unit =
     fun cases ->
      List.iter
        (fun (c : k Typedtree.case) ->
          scan_pat ~under_alias:false c.c_lhs;
          let names = pat_names c.c_lhs in
          List.iter (fun n -> Hashtbl.add scope n Svalue) names;
          Option.iter iter_e c.c_guard;
          iter_e c.c_rhs;
          List.iter (fun n -> Hashtbl.remove scope n) names)
        cases
    in
    match e.exp_desc with
    | Texp_ident (p, _, _) ->
        let cands = canon_path p in
        let l = line_of e.exp_loc in
        List.iter
          (fun c -> if E.is_lock c then (top_sink ()).sk_locks <- true)
          cands;
        (match List.find_map E.nondet_of cands with
        | Some what -> add_nondet what l
        | None -> ());
        add_ref cands l
    | Texp_apply (fn, args) -> (
        let heads = head_canons fn in
        let pick f = List.find_map f heads in
        let apply_line = line_of e.exp_loc in
        (* in-place mutation of a module-level target *)
        (match pick E.write_arg with
        | Some idx -> (
            match List.nth_opt args idx with
            | Some (_, Some arg) -> (
                match base_ident arg with
                | Some cands -> add_write cands apply_line
                | None -> ())
            | _ -> ())
        | None -> ());
        (* physical equality on boxed values *)
        (match pick (fun h -> if E.is_physical_eq h then Some h else None) with
        | Some h ->
            let boxed =
              List.exists
                (fun (_, a) ->
                  match a with
                  | Some (arg : Typedtree.expression) ->
                      E.is_boxed_type arg.exp_type
                  | None -> false)
                args
            in
            if boxed then
              add_nondet
                (Printf.sprintf
                   "physical equality (%s) on boxed values — pointer \
                    identity is allocation-order dependent"
                   (if h = "Stdlib.==" then "==" else "!="))
                apply_line
        | None -> ());
        (* L12: DLS keys minted away from module toplevel *)
        (if pick (fun h -> if E.is_dls_new_key h then Some () else None) <> None
         && !fn_depth > 0
        then
           add_direct 12 e.exp_loc
             "Domain.DLS.new_key in non-toplevel position — a key minted \
              per call leaks one slot per invocation and defeats the \
              per-domain cache; hoist it to module toplevel");
        (* L11: Result.get_ok / get_error on a typed solver result *)
        (match heads with
        | h :: _ when h = "Stdlib.Result.get_ok" || h = "Stdlib.Result.get_error"
          ->
            (* the error component is usually an abbreviation
               ([Transient.error]); collect its candidate names and let
               phase 2 decide whether it chases to Solver_error.t *)
            let err_cands =
              List.concat_map
                (fun (_, a) ->
                  match a with
                  | Some (arg : Typedtree.expression) -> (
                      match Types.get_desc arg.exp_type with
                      | Tconstr (p, [ _; err ], _)
                        when E.normalize_name (Path.name p) = "result"
                             || E.is_result_name
                                  (E.normalize_name (Path.name p)) ->
                          ty_cands err
                      | _ -> [])
                  | None -> [])
                args
            in
            add_maybe_l11 err_cands e.exp_loc
              "Result.get_ok on a solver result erases the typed \
               Solver_error into Invalid_argument — match on the result \
               (or thread it) instead"
        | _ -> ());
        (* parallel entry points: record the site and collect worker roots *)
        match pick E.entry_of with
        | Some short ->
            let roots = fresh_sink () in
            sites :=
              {
                st_file = file;
                st_line = apply_line;
                st_entry = short;
                st_roots = roots;
                st_owner = owner_of_stack ();
              }
              :: !sites;
            iter_e fn;
            List.iter
              (fun (_, a) ->
                match a with
                | Some (arg : Typedtree.expression) ->
                    if is_arrow arg.exp_type then begin
                      stack := (Froots, roots) :: !stack;
                      iter_e arg;
                      stack := List.tl !stack
                    end
                    else iter_e arg
                | None -> ())
              args
        | None ->
            iter_e fn;
            List.iter (fun (_, a) -> Option.iter iter_e a) args)
    | Texp_let (rf, vbs, body) ->
        (* nested named functions become nodes (so passing them to a sweep
           by name stays resolvable) except inside worker-roots sinks,
           where effects are already attributed inline *)
        let make_nested =
          match !stack with (Froots, _) :: _ -> false | _ -> true
        in
        let owner =
          match !stack with
          | ((Fnode nid | Fvalue nid), _) :: _ -> nid
          | _ -> cur_prefix ()
        in
        let bound = List.concat_map (fun vb -> pat_names vb.Typedtree.vb_pat) vbs in
        let register () =
          List.iter
            (fun (vb : Typedtree.value_binding) ->
              match bound_var vb.vb_pat with
              | Some id when make_nested && is_fun vb.vb_expr ->
                  Hashtbl.add scope (Ident.name id)
                    (Snode (owner ^ "." ^ Ident.name id))
              | _ ->
                  List.iter
                    (fun n -> Hashtbl.add scope n Svalue)
                    (pat_names vb.vb_pat))
            vbs
        in
        let walk_vbs () =
          List.iter
            (fun (vb : Typedtree.value_binding) ->
              scan_pat ~under_alias:false vb.vb_pat;
              match bound_var vb.vb_pat with
              | Some id when make_nested && is_fun vb.vb_expr ->
                  let nid = owner ^ "." ^ Ident.name id in
                  let sink = fresh_sink () in
                  nodes :=
                    {
                      nd_id = nid;
                      nd_file = file;
                      nd_line = line_of vb.vb_loc;
                      nd_sink = sink;
                    }
                    :: !nodes;
                  stack := (Fnode nid, sink) :: !stack;
                  iter_e vb.vb_expr;
                  stack := List.tl !stack
              | _ -> iter_e vb.vb_expr)
            vbs
        in
        (match rf with
        | Recursive ->
            register ();
            walk_vbs ()
        | Nonrecursive ->
            walk_vbs ();
            register ());
        iter_e body;
        List.iter (fun n -> Hashtbl.remove scope n) bound
    | Texp_function { cases; _ } ->
        incr fn_depth;
        walk_cases cases;
        decr fn_depth
    | Texp_match (scrut, cases, _) ->
        iter_e scrut;
        walk_cases cases
    | Texp_try (body, cases) ->
        iter_e body;
        walk_cases cases
    | Texp_for (id, _, lo, hi, _, body) ->
        iter_e lo;
        iter_e hi;
        Hashtbl.add scope (Ident.name id) Svalue;
        iter_e body;
        Hashtbl.remove scope (Ident.name id)
    | Texp_setfield (obj, _, _, v) ->
        (match base_ident obj with
        | Some cands -> add_write cands (line_of e.exp_loc)
        | None -> ());
        iter_e obj;
        iter_e v
    | Texp_letmodule (id_opt, _, _, mexpr, body) -> (
        match (id_opt, mexpr.Typedtree.mod_desc) with
        | Some id, Tmod_ident (p, _) ->
            let target =
              qualify_local (E.resolve aliases (E.normalize_name (Path.name p)))
            in
            Hashtbl.add aliases (Ident.name id) target;
            iter_e body;
            Hashtbl.remove aliases (Ident.name id)
        | _ -> iter_e body)
    | Texp_pack _ ->
        (* first-class module values: contents are not walked (calls
           through them are unresolvable anyway); must not crash *)
        ()
    | _ -> Tast_iterator.default_iterator.expr sub e
  in

  let handle_module sub (mb : Typedtree.module_binding) =
    let name = match mb.mb_name.txt with Some n -> n | None -> "_" in
    let rec functor_head (f : Typedtree.module_expr) =
      match f.mod_desc with
      | Tmod_ident (p, _) ->
          Some (qualify_local (E.resolve aliases (E.normalize_name (Path.name p))))
      | Tmod_apply (g, _, _) -> functor_head g
      | Tmod_constraint (inner, _, _, _) -> functor_head inner
      | _ -> None
    in
    let rec go (me : Typedtree.module_expr) =
      match me.mod_desc with
      | Tmod_ident (p, _) ->
          let target =
            qualify_local (E.resolve aliases (E.normalize_name (Path.name p)))
          in
          Hashtbl.replace aliases name target;
          modaliases := (cur_prefix () ^ "." ^ name, target) :: !modaliases
      | Tmod_structure s ->
          let full = cur_prefix () ^ "." ^ name in
          Hashtbl.replace local_modules name full;
          prefixes := full :: !prefixes;
          List.iter (fun it -> sub.Tast_iterator.structure_item sub it) s.str_items;
          prefixes := List.tl !prefixes
      | Tmod_functor (_, body) -> go body
      | Tmod_apply (f, _, _) | Tmod_apply_unit f -> (
          match functor_head f with
          | Some target ->
              Hashtbl.replace aliases name target;
              modaliases := (cur_prefix () ^ "." ^ name, target) :: !modaliases
          | None -> ())
      | Tmod_constraint (inner, _, _, _) -> go inner
      | Tmod_unpack _ -> ()
    in
    go mb.mb_expr
  in

  let structure_item (sub : Tast_iterator.iterator) (si : Typedtree.structure_item)
      =
    match si.str_desc with
    | Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            scan_pat ~under_alias:false vb.vb_pat;
            match bound_var vb.vb_pat with
            | Some id when is_fun vb.vb_expr ->
                let nid = cur_prefix () ^ "." ^ Ident.name id in
                let sink = fresh_sink () in
                nodes :=
                  {
                    nd_id = nid;
                    nd_file = file;
                    nd_line = line_of vb.vb_loc;
                    nd_sink = sink;
                  }
                  :: !nodes;
                stack := (Fnode nid, sink) :: !stack;
                sub.Tast_iterator.expr sub vb.vb_expr;
                stack := List.tl !stack
            | Some id ->
                let nid = cur_prefix () ^ "." ^ Ident.name id in
                (match alloc_class_of vb.vb_expr with
                | E.Hazard kind ->
                    hazards :=
                      {
                        hz_id = nid;
                        hz_file = file;
                        hz_line = line_of vb.vb_loc;
                        hz_kind = kind;
                      }
                      :: !hazards
                | _ -> ());
                (* module-load initialization: effects run once, serially,
                   before any worker exists — walked into a value sink that
                   only L14 reads (sites inside it are still recorded) *)
                let sink = fresh_sink () in
                values :=
                  {
                    nd_id = nid;
                    nd_file = file;
                    nd_line = line_of vb.vb_loc;
                    nd_sink = sink;
                  }
                  :: !values;
                with_frame (Fvalue nid) sink (fun () ->
                    sub.Tast_iterator.expr sub vb.vb_expr)
            | None -> (
                (* [let () = ...] is a toplevel effect (an L14 root); a
                   destructuring [let a, b = ...] gives every name the
                   bindings' shared sink *)
                match pat_names vb.vb_pat with
                | [] ->
                    with_frame Finit init (fun () ->
                        sub.Tast_iterator.expr sub vb.vb_expr)
                | n :: _ as names ->
                    let sink = fresh_sink () in
                    List.iter
                      (fun name ->
                        values :=
                          {
                            nd_id = cur_prefix () ^ "." ^ name;
                            nd_file = file;
                            nd_line = line_of vb.vb_loc;
                            nd_sink = sink;
                          }
                          :: !values)
                      names;
                    with_frame
                      (Fvalue (cur_prefix () ^ "." ^ n))
                      sink
                      (fun () -> sub.Tast_iterator.expr sub vb.vb_expr)))
          vbs
    | Tstr_eval (e, _) -> with_frame Finit init (fun () -> sub.Tast_iterator.expr sub e)
    | Tstr_type (_, decls) ->
        (* record [type error = Some.Path.t] manifests so phase 2 can chase
           abbreviations of Solver_error.t across files *)
        List.iter
          (fun (d : Typedtree.type_declaration) ->
            match d.typ_manifest with
            | Some cty -> (
                match Types.get_desc cty.ctyp_type with
                | Tconstr (p, [], _) ->
                    let name = cur_prefix () ^ "." ^ d.typ_name.txt in
                    tyaliases := (name, ty_path_cands p) :: !tyaliases
                | _ -> ())
            | None -> ())
          decls
    | Tstr_module mb -> handle_module sub mb
    | Tstr_recmodule mbs -> List.iter (handle_module sub) mbs
    | Tstr_include incl -> (
        match incl.incl_mod.mod_desc with
        | Tmod_structure s ->
            List.iter (fun it -> sub.Tast_iterator.structure_item sub it) s.str_items
        | Tmod_ident (p, _)
        | Tmod_constraint ({ mod_desc = Tmod_ident (p, _); _ }, _, _, _) ->
            (* [include M]: names the including module does not define
               itself resolve into [M] (the umbrella re-export shims) *)
            modaliases :=
              ( cur_prefix (),
                qualify_local (E.resolve aliases (E.normalize_name (Path.name p)))
              )
              :: !modaliases
        | _ -> ())
    | _ -> Tast_iterator.default_iterator.structure_item sub si
  in

  let iter =
    { Tast_iterator.default_iterator with expr; structure_item }
  in
  iter.structure iter str;
  {
    fs_file = file;
    fs_modname = modname;
    fs_nodes = List.rev !nodes;
    fs_values = List.rev !values;
    fs_init = init;
    fs_modaliases = List.rev !modaliases;
    fs_hazards = List.rev !hazards;
    fs_sites = List.rev !sites;
    fs_direct = List.rev !direct;
    fs_tyaliases = List.rev !tyaliases;
    fs_maybe_l11 = List.rev !maybe_l11;
  }

(* ---------- phase 2 ---------- *)

type analysis = {
  an_graph : (string * string list) list;
  an_written : string list;
  an_findings : (string * raw) list;
}

(* display name: drop the library segment of a 3+-segment id *)
let short_id id =
  match String.split_on_char '.' id with
  | _ :: (_ :: _ :: _ as rest) -> String.concat "." rest
  | _ -> id

let analyze summaries =
  let node_tbl : (string, node) Hashtbl.t = Hashtbl.create 256 in
  let hazard_tbl : (string, hazard) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun fs ->
      List.iter (fun n -> Hashtbl.replace node_tbl n.nd_id n) fs.fs_nodes;
      List.iter (fun h -> Hashtbl.replace hazard_tbl h.hz_id h) fs.fs_hazards)
    summaries;
  let resolve_node cands = List.find_opt (Hashtbl.mem node_tbl) cands in
  let resolve_hazard cands = List.find_opt (Hashtbl.mem hazard_tbl) cands in

  (* hazards written from function bodies or worker closures; module-load
     init writes (discard sink) are deliberately exempt *)
  let written : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let note_writes (sk : sink) =
    List.iter
      (fun (cands, _) ->
        match resolve_hazard cands with
        | Some h -> Hashtbl.replace written h ()
        | None -> ())
      sk.sk_writes
  in
  List.iter
    (fun fs ->
      List.iter (fun n -> note_writes n.nd_sink) fs.fs_nodes;
      List.iter (fun s -> note_writes s.st_roots) fs.fs_sites)
    summaries;

  let graph =
    List.concat_map
      (fun fs ->
        List.map
          (fun n ->
            let callees =
              List.filter_map (fun (cands, _) -> resolve_node cands)
                n.nd_sink.sk_refs
              |> List.sort_uniq compare
            in
            (n.nd_id, callees))
          fs.fs_nodes)
      summaries
    |> List.sort compare
  in

  let seen : (int * string * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let out = ref [] in
  let emit rule file line msg =
    if not (Hashtbl.mem seen (rule, file, line)) then begin
      Hashtbl.add seen (rule, file, line) ();
      out := (file, { rw_rule = rule; rw_line = line; rw_message = msg }) :: !out
    end
  in
  let chain_str = function
    | [] -> ""
    | chain ->
        Printf.sprintf " (call path: worker -> %s)" (String.concat " -> " chain)
  in

  (* L11: resolve the candidate type names recorded at wildcard patterns
     and Result.get_ok sites through the abbreviation chain
     ([type error = Solver_error.t] and friends) *)
  let tyalias_tbl : (string, string list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun fs ->
      List.iter
        (fun (name, targets) ->
          if not (Hashtbl.mem tyalias_tbl name) then
            Hashtbl.add tyalias_tbl name targets)
        fs.fs_tyaliases)
    summaries;
  let rec ty_is_solver_error seen cands =
    List.exists
      (fun c ->
        E.is_solver_error_name c
        || (not (List.mem c seen)
           &&
           match Hashtbl.find_opt tyalias_tbl c with
           | Some next -> ty_is_solver_error (c :: seen) next
           | None -> false))
      cands
  in
  List.iter
    (fun fs ->
      List.iter
        (fun (cands, r) ->
          if ty_is_solver_error [] cands then
            emit r.rw_rule fs.fs_file r.rw_line r.rw_message)
        fs.fs_maybe_l11)
    summaries;

  List.iter
    (fun fs ->
      List.iter
        (fun st ->
          let origin =
            Printf.sprintf "the %s worker at %s:%d" st.st_entry st.st_file
              st.st_line
          in
          let check_sink ~file ~chain (sk : sink) =
            if not sk.sk_locks then begin
              List.iter
                (fun (cands, l) ->
                  match resolve_hazard cands with
                  | Some h ->
                      let hz = Hashtbl.find hazard_tbl h in
                      emit 8 file l
                        (Printf.sprintf
                           "unsynchronized module-level mutable state `%s` \
                            (%s, defined at %s:%d) is written in code \
                            reachable from %s%s — use an Atomic, a Mutex, \
                            or Domain.DLS"
                           (short_id h) hz.hz_kind hz.hz_file hz.hz_line
                           origin (chain_str chain))
                  | None -> ())
                sk.sk_writes;
              List.iter
                (fun (cands, l) ->
                  match resolve_hazard cands with
                  | Some h when Hashtbl.mem written h ->
                      let hz = Hashtbl.find hazard_tbl h in
                      emit 8 file l
                        (Printf.sprintf
                           "module-level mutable state `%s` (%s, defined \
                            at %s:%d) is read in code reachable from %s \
                            while other code writes it%s — synchronize or \
                            snapshot it before the sweep"
                           (short_id h) hz.hz_kind hz.hz_file hz.hz_line
                           origin (chain_str chain))
                  | _ -> ())
                sk.sk_refs
            end;
            List.iter
              (fun (nd : nondet) ->
                emit 9 file nd.nd_line
                  (Printf.sprintf
                     "nondeterminism reachable from %s: %s%s — sweep \
                      results must be bit-identical to serial for any \
                      --jobs"
                     origin nd.nd_what (chain_str chain)))
              sk.sk_nondet
          in
          check_sink ~file:st.st_file ~chain:[] st.st_roots;
          let visited : (string, unit) Hashtbl.t = Hashtbl.create 32 in
          let q = Queue.create () in
          let enqueue chain (cands, _) =
            match resolve_node cands with
            | Some nid when not (Hashtbl.mem visited nid) ->
                Hashtbl.add visited nid ();
                Queue.add (nid, chain) q
            | _ -> ()
          in
          List.iter (enqueue []) st.st_roots.sk_refs;
          while not (Queue.is_empty q) do
            let nid, chain = Queue.pop q in
            let n = Hashtbl.find node_tbl nid in
            let chain' = chain @ [ short_id nid ] in
            check_sink ~file:n.nd_file ~chain:chain' n.nd_sink;
            List.iter (enqueue chain') n.nd_sink.sk_refs
          done)
        fs.fs_sites)
    summaries;
  {
    an_graph = graph;
    an_written = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) written []);
    an_findings = List.rev !out;
  }

(* ---------- L14: exports no program root reaches ---------- *)

type export = { ex_id : string; ex_file : string; ex_line : int }

let exports ~modname ~file (sg : Typedtree.signature) =
  let rec walk prefix (sg : Typedtree.signature) acc =
    List.fold_left
      (fun acc (it : Typedtree.signature_item) ->
        match it.sig_desc with
        | Tsig_value vd ->
            {
              ex_id = prefix ^ "." ^ vd.val_name.txt;
              ex_file = file;
              ex_line = line_of vd.val_loc;
            }
            :: acc
        | Tsig_module
            {
              md_name = { txt = Some name; _ };
              md_type = { mty_desc = Tmty_signature sub; _ };
              _;
            }
          when name <> "For_testing" ->
            walk (prefix ^ "." ^ name) sub acc
        | _ -> acc)
      acc sg.sig_items
  in
  List.rev (walk modname sg [])

let dead_exports ~roots summaries exports =
  let defs : (string, sink) Hashtbl.t = Hashtbl.create 1024 in
  let owned : (string, sink) Hashtbl.t = Hashtbl.create 64 in
  let modalias : (string, string) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun fs ->
      List.iter
        (fun n -> Hashtbl.add defs n.nd_id n.nd_sink)
        (fs.fs_nodes @ fs.fs_values);
      List.iter (fun (m, t) -> Hashtbl.replace modalias m t) fs.fs_modaliases;
      List.iter
        (fun st -> Option.iter (fun o -> Hashtbl.add owned o st.st_roots) st.st_owner)
        fs.fs_sites)
    (roots @ summaries);
  (* a name no module defines is rewritten through the longest aliased
     module prefix ([Gnrflash.Telemetry.count] ->
     [Gnrflash_telemetry.Telemetry.count]), to a bounded fixpoint *)
  let rec canon fuel name =
    let rec longest j =
      match String.rindex_from_opt name j '.' with
      | None -> name
      | Some i -> (
          match Hashtbl.find_opt modalias (String.sub name 0 i) with
          | Some t when fuel > 0 ->
              canon (fuel - 1) (t ^ String.sub name i (String.length name - i))
          | _ -> if i = 0 then name else longest (i - 1))
    in
    if Hashtbl.mem defs name then name else longest (String.length name - 1)
  in
  (* visited definitions, plus the names references mention but no
     definition resolves (externals, include-only re-exports) *)
  let reached : (string, unit) Hashtbl.t = Hashtbl.create 1024 in
  let q = Queue.create () in
  let visit ?self (sk : sink) =
    List.iter
      (fun (cands, _) ->
        (* a definition never reaches itself: [let make = make] inside
           [For_testing] names the outer [make], not its own binding *)
        let cands =
          List.filter (fun c -> Some c <> self) (List.map (canon 8) cands)
        in
        match List.find_opt (Hashtbl.mem defs) cands with
        | Some id ->
            if not (Hashtbl.mem reached id) then begin
              Hashtbl.add reached id ();
              Queue.add id q
            end
        | None -> List.iter (fun c -> Hashtbl.replace reached c ()) cands)
      sk.sk_refs
  in
  (* roots: everything in the program files, and every toplevel effect
     (and unowned sweep site) and [For_testing] body of the library *)
  List.iter
    (fun fs ->
      List.iter (fun n -> visit n.nd_sink) (fs.fs_nodes @ fs.fs_values);
      List.iter (fun st -> visit st.st_roots) fs.fs_sites;
      visit fs.fs_init)
    roots;
  let for_testing id =
    List.mem "For_testing" (String.split_on_char '.' id)
  in
  List.iter
    (fun fs ->
      visit fs.fs_init;
      List.iter
        (fun st -> if st.st_owner = None then visit st.st_roots)
        fs.fs_sites;
      List.iter
        (fun n -> if for_testing n.nd_id then visit ~self:n.nd_id n.nd_sink)
        (fs.fs_nodes @ fs.fs_values))
    summaries;
  while not (Queue.is_empty q) do
    let id = Queue.pop q in
    List.iter (visit ~self:id) (Hashtbl.find_all defs id);
    List.iter visit (Hashtbl.find_all owned id)
  done;
  List.filter
    (fun ex ->
      not (Hashtbl.mem reached ex.ex_id || Hashtbl.mem reached (canon 8 ex.ex_id)))
    exports
