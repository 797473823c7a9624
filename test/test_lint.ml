(* Self-test for gnrflash-lint: every (* EXPECT L<n> *) marker in the
   fixture directory (.ml and .mli) must produce exactly one finding of
   that rule on that line, (* EXPECT-SUPPRESSED L<n> *) exactly one
   suppressed finding, and nothing else may fire (a stale allow comment
   is a finding too). Also asserts the repo itself is lint-clean, L14 and
   stale allows included: every lib/ export is reached from bin/, bench/,
   examples/ or perfbench/, and every allow comment suppresses a finding. *)

module E = Gnrflash_lint_engine.Lint_engine
open Gnrflash_testing.Testing

let fixtures_subdir = "tools/lint/fixtures"

let root = E.locate_root ()

(* L14 roots: every fixture module except the two L14 library-side ones,
   so only bad_l14*.mli are checked for unreached exports and the root
   l14_root.ml decides what they reach *)
let fixture_config =
  {
    E.solver_basenames = [ "bad_l1.ml" ];
    l3_exempt_basenames = [];
    roots =
      Sys.readdir (Filename.concat root fixtures_subdir)
      |> Array.to_list
      |> List.filter (fun name ->
             Filename.check_suffix name ".ml"
             && not (String.starts_with ~prefix:"bad_l14" name))
      |> List.map (Filename.concat fixtures_subdir);
  }

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* (file, line, rule, suppressed) expectations parsed from the markers *)
let expected_findings () =
  let dir = Filename.concat root fixtures_subdir in
  let parse_file acc name =
    if Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"
    then begin
      let path = Filename.concat dir name in
      let ic = open_in path in
      let acc = ref acc in
      let lnum = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr lnum;
           List.iter
             (fun rule ->
               let record suppressed =
                 acc :=
                   (Filename.concat fixtures_subdir name, !lnum, rule,
                    suppressed)
                   :: !acc
               in
               let id = E.rule_id rule in
               if contains line (Printf.sprintf "(* EXPECT %s *)" id) then
                 record false;
               if
                 contains line
                   (Printf.sprintf "(* EXPECT-SUPPRESSED %s *)" id)
               then record true)
             E.all_rules
         done
       with End_of_file -> close_in ic);
      !acc
    end
    else acc
  in
  Array.fold_left parse_file [] (Sys.readdir dir)
  |> List.sort compare

let test_fixtures_exact () =
  let report = E.run ~config:fixture_config ~root ~subdir:fixtures_subdir () in
  check_true "fixtures were scanned" (report.E.files_scanned > 0);
  check_true "fixture roots were scanned" (report.E.roots_scanned > 0);
  let actual =
    List.map
      (fun f -> (f.E.file, f.E.line, f.E.rule, f.E.suppressed))
      report.E.findings
    |> List.sort compare
  in
  let expected = expected_findings () in
  check_true "fixture markers exist" (List.length expected > 0);
  let show (file, line, rule, supp) =
    Printf.sprintf "%s:%d %s%s" file line (E.rule_id rule)
      (if supp then " (suppressed)" else "")
  in
  Alcotest.(check (list string))
    "findings match EXPECT markers exactly" (List.map show expected)
    (List.map show actual)

let test_every_rule_covered () =
  (* the fixture set must exercise every rule, both firing and
     suppressed *)
  let expected = expected_findings () in
  List.iter
    (fun rule ->
      check_true
        (Printf.sprintf "%s fires in fixtures" (E.rule_id rule))
        (List.exists (fun (_, _, r, s) -> r = rule && not s) expected);
      check_true
        (Printf.sprintf "%s suppressible in fixtures" (E.rule_id rule))
        (List.exists (fun (_, _, r, s) -> r = rule && s) expected))
    E.all_rules

(* The inter-procedural phase exposes its resolved call graph through the
   report; the cg_stress fixture pins the shapes that historically broke
   naive walkers: mutual recursion (a cycle the BFS must traverse without
   looping), functor bodies (instantiation aliases must resolve into them),
   and first-class modules (must not crash the walker). *)
let test_callgraph () =
  let report = E.run ~config:fixture_config ~root ~subdir:fixtures_subdir () in
  let graph = report.E.graph in
  check_true "call graph is non-empty" (graph <> []);
  let ends_with suffix s =
    let ls = String.length s and lf = String.length suffix in
    ls >= lf && String.sub s (ls - lf) lf = suffix
  in
  let node suffix =
    match List.find_opt (fun (id, _) -> ends_with suffix id) graph with
    | Some n -> n
    | None ->
        Alcotest.failf "node *.%s not in graph: %s" suffix
          (String.concat ", " (List.map fst graph))
  in
  let has_edge caller callee =
    let _, callees = node caller in
    List.exists (ends_with callee) callees
  in
  check_true "cycle edge even_step -> odd_step"
    (has_edge "Cg_stress.even_step" "Cg_stress.odd_step");
  check_true "cycle edge odd_step -> even_step"
    (has_edge "Cg_stress.odd_step" "Cg_stress.even_step");
  (* the functor body got its own node, so [C0.bump] calls resolve there *)
  ignore (node "Cg_stress.Counter.bump");
  (* the two-hop chain behind the seeded L8 race *)
  check_true "edge log_hit -> bump"
    (has_edge "Bad_l8.log_hit" "Bad_l8.bump");
  (* first-class modules did not crash phase 1 and the caller still has a
     node (the packed body itself is a documented resolution miss) *)
  ignore (node "Cg_stress.through_pack")

let test_engine_api () =
  check_true "rule_of_string L8" (E.rule_of_string "L8" = Some E.L8);
  check_true "rule_of_string lowercase" (E.rule_of_string "l11" = Some E.L11);
  check_true "rule_of_string L14" (E.rule_of_string "L14" = Some E.L14);
  check_true "rule_of_string out of range" (E.rule_of_string "L15" = None);
  check_true "rule_of_string retired L7" (E.rule_of_string "L7" = None);
  check_true "rule_of_string retired L10" (E.rule_of_string "L10" = None);
  check_true "rule_of_string junk" (E.rule_of_string "Lx" = None);
  let report = E.run ~config:fixture_config ~root ~subdir:fixtures_subdir () in
  let counts = E.by_rule report in
  check_true "by_rule covers every rule"
    (List.length counts = List.length E.all_rules);
  let unsup = List.fold_left (fun a (_, u, _) -> a + u) 0 counts in
  let sup = List.fold_left (fun a (_, _, s) -> a + s) 0 counts in
  check_true "by_rule counts sum to the findings"
    (unsup = List.length (E.unsuppressed report)
    && sup = List.length (E.suppressed report));
  let only8 = E.filter_rules [ E.L8 ] report in
  check_true "filter_rules keeps only L8"
    (only8.E.findings <> []
    && List.for_all (fun f -> f.E.rule = E.L8) only8.E.findings);
  let json = E.render_json report in
  check_true "json lists findings" (contains json "\"findings\"");
  check_true "json has per-rule counts" (contains json "\"by_rule\"");
  check_true "json mentions L8" (contains json "\"L8\"")

(* An allow is checked against the findings of its rule only when the
   rule ran: without a root .cmt, L14 does not run, so bad_l14.mli's
   allows (the stale one included) report nothing, while the other
   rules' stale allows still do. *)
let test_unused_allow_needs_the_rule () =
  let config = { fixture_config with E.roots = [] } in
  let report = E.run ~config ~root ~subdir:fixtures_subdir () in
  Alcotest.(check int) "no roots scanned" 0 report.E.roots_scanned;
  check_true "no L14 finding"
    (List.for_all (fun f -> f.E.rule <> E.L14) report.E.findings);
  check_true "stale L2 allow still reported"
    (List.exists
       (fun f ->
         f.E.rule = E.L2 && (not f.E.suppressed)
         && f.E.file = Filename.concat fixtures_subdir "stale_allow.ml")
       report.E.findings)

(* The rules match library values by qualified name; a renamed or deleted
   value leaves a name that matches nothing, and its rule checks less
   without a word. Each name must be a [val] of the .mli it names. *)
let test_matched_names_exist () =
  let rec find_lib_dir dir objs =
    let entries = Sys.readdir dir in
    if Array.mem objs entries then Some dir
    else
      Array.fold_left
        (fun acc e ->
          match acc with
          | Some _ -> acc
          | None ->
            let p = Filename.concat dir e in
            if e <> "" && e.[0] <> '.' && Sys.is_directory p then
              find_lib_dir p objs
            else None)
        None entries
  in
  check_true "names listed" (List.length E.matched_names > 5);
  List.iter
    (fun name ->
      match String.split_on_char '.' name with
      | [ lib; m; v ] ->
        let dir =
          match
            find_lib_dir (Filename.concat root "lib")
              ("." ^ String.lowercase_ascii lib ^ ".objs")
          with
          | Some d -> d
          | None -> Alcotest.failf "%s: no library %s under lib/" name lib
        in
        let mli = Filename.concat dir (String.uncapitalize_ascii m ^ ".mli") in
        if not (Sys.file_exists mli) then Alcotest.failf "%s: no %s" name mli;
        let ic = open_in mli in
        let declared = ref false in
        (try
           while true do
             let line = String.trim (input_line ic) in
             let decl = "val " ^ v in
             if line = decl
                || String.starts_with ~prefix:(decl ^ " ") line
                || String.starts_with ~prefix:(decl ^ ":") line
             then declared := true
           done
         with End_of_file -> close_in ic);
        check_true (Printf.sprintf "%s declared in %s" name mli) !declared
      | _ -> Alcotest.failf "%s: expected Library.Module.value" name)
    E.matched_names

let rec sources dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun e ->
         let p = Filename.concat dir e in
         if Sys.is_directory p then if e.[0] = '.' then [] else sources p
         else if Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli" then [ p ]
         else [])

(* Telemetry's per-domain sink is the one piece of ambient state in lib/:
   anything else a solve depends on (a fault plan, a cache keyed by record
   identity) is passed explicitly, so no other source may name
   [Domain.DLS]. *)
let test_no_ambient_dls () =
  let lib = Filename.concat root "lib" in
  let telemetry = Filename.concat lib "core/telemetry/" in
  let files = sources lib in
  check_true "lib/ sources found" (List.length files > 50);
  Alcotest.(check (list string))
    "Domain.DLS outside lib/core/telemetry/" []
    (List.filter
       (fun p ->
         (not (String.starts_with ~prefix:telemetry p))
         && contains (In_channel.with_open_bin p In_channel.input_all) "Domain.DLS")
       files)

(* One exported name per quantity: no lib/ interface may declare both
   [val x] and a unit-typed twin [val x_q] or [val x_qty], For_testing
   included. A formula's typed body stays private to its module. *)
let val_names text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | "val" :: name :: _ -> Some (List.hd (String.split_on_char ':' name))
         | _ -> None)

let typed_twins names =
  List.concat_map
    (fun x ->
      List.filter_map
        (fun twin -> if List.mem twin names then Some (x ^ "/" ^ twin) else None)
        [ x ^ "_q"; x ^ "_qty" ])
    names

let test_no_typed_twins () =
  check_true "a twin is caught"
    (typed_twins (val_names "val vfg : t\nmodule For_testing : sig\n  val vfg_q: t\nend")
     = [ "vfg/vfg_q" ]);
  let lib = Filename.concat root "lib" in
  let mlis = List.filter (fun p -> Filename.check_suffix p ".mli") (sources lib) in
  check_true "lib/ interfaces found" (List.length mlis > 50);
  let skip = String.length root + 1 in
  let relative p = String.sub p skip (String.length p - skip) in
  Alcotest.(check (list string))
    "val x declared beside val x_q or val x_qty" []
    (List.concat_map
       (fun p ->
         List.map
           (fun twin -> relative p ^ ": " ^ twin)
           (typed_twins (val_names (In_channel.with_open_bin p In_channel.input_all))))
       mlis)

(* Ratchet on suppressions: each rule may carry at most this many
   reasoned [lint: allow] findings in lib/. A new suppression of any rule
   fails the test unless the same change raises that rule's cap here; lower
   a cap whenever a suppression is retired. L14 is at 0: every lib/ export
   has a program caller, and test scaffolding lives in [For_testing]. The
   match is exhaustive, so a new rule must be given its cap. *)
let max_l14_suppressions = 0

let max_suppressions = function
  | E.L1 -> 1
  | E.L2 -> 3
  | E.L4 -> 4
  | E.L9 -> 3
  | E.L14 -> max_l14_suppressions
  | E.L3 | E.L5 | E.L6 | E.L8 | E.L11 | E.L12 | E.L13 -> 0

let test_repo_clean () =
  let report = E.run ~root ~subdir:"lib" () in
  check_true "repo libraries were scanned" (report.E.files_scanned > 50);
  (* L14 needs the programs' .cmts: test/dune depends on their @check *)
  check_true "program roots were scanned" (report.E.roots_scanned > 10);
  Alcotest.(check (list string))
    "no unsuppressed findings in lib/" []
    (List.map E.render_finding (E.unsuppressed report));
  List.iter
    (fun rule ->
       let n =
         List.length (List.filter (fun f -> f.E.rule = rule) (E.suppressed report))
       in
       check_true
         (Printf.sprintf "%d suppressed %s findings in lib/ (at most %d)" n
            (E.rule_id rule) (max_suppressions rule))
         (n <= max_suppressions rule))
    E.all_rules

let () =
  Alcotest.run "lint"
    [
      ( "lint",
        [
          case "fixtures match markers" test_fixtures_exact;
          case "all rules covered" test_every_rule_covered;
          case "call graph shapes" test_callgraph;
          case "engine api" test_engine_api;
          case "unused allow needs its rule to run" test_unused_allow_needs_the_rule;
          case "matched names are declared" test_matched_names_exist;
          case "repo is lint-clean" test_repo_clean;
          case "no Domain.DLS outside Telemetry" test_no_ambient_dls;
          case "no typed twin exports" test_no_typed_twins;
        ] );
    ]
