(* gnrflash-lint: run the twelve rules L1–L14 (there is no L7 or L10)
   over the library tree.

   Usage:
     gnrflash_lint.exe [--root DIR] [--subdir DIR] [--quiet] [--json]
                       [--rules L8,L9]

   Exits 1 when unsuppressed findings remain (after rule filtering), 0
   otherwise, 2 on usage errors. *)

module E = Gnrflash_lint_engine.Lint_engine

let () =
  let root = ref None in
  let subdir = ref "lib" in
  let quiet = ref false in
  let json = ref false in
  let rules = ref None in
  let rec parse = function
    | [] -> ()
    | "--root" :: dir :: rest ->
        root := Some dir;
        parse rest
    | "--subdir" :: dir :: rest ->
        subdir := dir;
        parse rest
    | "--quiet" :: rest ->
        quiet := true;
        parse rest
    | "--json" :: rest ->
        json := true;
        parse rest
    | "--rules" :: spec :: rest ->
        let parsed =
          String.split_on_char ',' spec
          |> List.map (fun tok ->
                 match E.rule_of_string tok with
                 | Some r -> r
                 | None ->
                     prerr_endline ("gnrflash-lint: unknown rule " ^ tok);
                     exit 2)
        in
        rules := Some parsed;
        parse rest
    | arg :: _ ->
        prerr_endline ("gnrflash-lint: unknown argument " ^ arg);
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let root = match !root with Some r -> r | None -> E.locate_root () in
  let report = E.run ~root ~subdir:!subdir () in
  let selected = Option.value !rules ~default:E.all_rules in
  let report = E.filter_rules selected report in
  let bad = E.unsuppressed report in
  let supp = E.suppressed report in
  if !json then print_endline (E.render_json report)
  else if not !quiet then begin
    List.iter (fun f -> print_endline (E.render_finding f)) report.findings;
    Printf.printf
      "gnrflash-lint: %d file(s), rules %s: %d finding(s), %d suppressed\n"
      report.files_scanned
      (String.concat "," (List.map E.rule_id selected))
      (List.length bad) (List.length supp)
  end;
  if report.roots_scanned = 0 && List.mem E.L14 selected then
    prerr_endline
      "gnrflash-lint: no program-root .cmt found (build the @check alias of \
       bin/, bench/, examples/ and perfbench/): L14 skipped";
  exit (if bad = [] then 0 else 1)
