(* Every library module must have a caller outside its own file and outside
   test/: its name has to appear in some .ml under lib/, bin/, bench/ or
   examples/. A module only its test suite reaches is dead weight: delete
   it with its suite, or give it a caller. *)

open Gnrflash_testing.Testing

(* the directory holding lib/ and bin/: the build context under dune, the
   checkout when run by hand *)
let root =
  let has d name = Sys.file_exists (Filename.concat d name) in
  let rec up d =
    if has d "lib" && has d "bin" then d
    else
      let parent = Filename.dirname d in
      if parent = d then failwith "test_callers: no lib/ and bin/ above the cwd"
      else up parent
  in
  up (Sys.getcwd ())

(* files under [dir] ending in [suffix], skipping dune's hidden dirs *)
let rec files_with suffix dir =
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name in
      if name.[0] = '.' then acc
      else if Sys.is_directory path then files_with suffix path @ acc
      else if Filename.check_suffix name suffix then path :: acc
      else acc)
    [] (Sys.readdir dir)

let is_ident = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* [word] occurs in [text] as a whole identifier *)
let mentions text word =
  let n = String.length text and m = String.length word in
  let rec from i =
    match String.index_from_opt text i word.[0] with
    | None -> false
    | Some j ->
      (j + m <= n
       && String.sub text j m = word
       && (j = 0 || not (is_ident text.[j - 1]))
       && (j + m = n || not (is_ident text.[j + m])))
      || from (j + 1)
  in
  from 0

let test_mentions () =
  check_true "qualified use" (mentions "let x = Cell_store.create" "Cell_store");
  check_false "prefix of a longer name" (mentions "Cell_store.t" "Cell");
  check_false "suffix of a longer name" (mentions "Gnrflash_cell" "Cell")

let test_every_module_called () =
  let sources =
    List.concat_map
      (fun d -> files_with ".ml" (Filename.concat root d))
      [ "lib"; "bin"; "bench"; "examples" ]
    |> List.map (fun path -> (path, In_channel.with_open_bin path In_channel.input_all))
  in
  let interfaces = files_with ".mli" (Filename.concat root "lib") in
  check_true "lib/ has interfaces" (List.length interfaces > 10);
  let uncalled =
    List.filter_map
      (fun mli ->
        let base = Filename.chop_suffix mli ".mli" in
        let own = base ^ ".ml" and name = String.capitalize_ascii (Filename.basename base) in
        if List.exists (fun (path, src) -> path <> own && mentions src name) sources
        then None
        else Some name)
      interfaces
    |> List.sort compare
  in
  Alcotest.(check (list string)) "modules with no caller" [] uncalled

let () =
  Alcotest.run "callers"
    [
      ( "callers",
        [
          case "whole-identifier match" test_mentions;
          case "every lib module has a caller outside test/" test_every_module_called;
        ] );
    ]
