module P = Gnrflash_plot
open Gnrflash_testing.Testing

let fig () =
  P.Figure.make ~title:"test figure" ~xlabel:"x" ~ylabel:"y"
    [
      P.Series.make ~label:"linear" [| (0., 1.); (1., 2.); (2., 4.) |];
      P.Series.make ~label:"flat" [| (0., 3.); (2., 3.) |];
    ]

let test_figure_filters_log_invalid () =
  let f =
    P.Figure.make ~title:"log" ~yscale:P.Scale.Log10
      [ P.Series.make ~label:"mixed" [| (0., -1.); (1., 10.); (2., 100.) |] ]
  in
  let s = List.hd f.P.Figure.series in
  Alcotest.(check int) "negative dropped" 2 (Array.length s.P.Series.points)

let test_figure_rejects_empty () =
  Alcotest.check_raises "no points" (Invalid_argument "Figure.make: no plottable points")
    (fun () ->
       ignore
         (P.Figure.make ~title:"empty" ~yscale:P.Scale.Log10
            [ P.Series.make ~label:"neg" [| (0., -1.) |] ]))

let test_figure_drops_nan () =
  let f = P.Figure.make ~title:"nan" [ P.Series.make ~label:"s" [| (0., nan); (1., 2.) |] ] in
  Alcotest.(check int) "nan dropped" 1
    (Array.length (List.hd f.P.Figure.series).P.Series.points)

let test_ascii_render_contains_content () =
  let out = P.Ascii.render ~width:40 ~height:10 (fig ()) in
  check_true "title present" (String.length out > 0);
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check_true "title" (contains "test figure" out);
  check_true "legend series 1" (contains "linear" out);
  check_true "legend series 2" (contains "flat" out);
  check_true "axis label" (contains "x:" out);
  check_true "glyph plotted" (contains "*" out)

let test_ascii_dimensions () =
  let out = P.Ascii.render ~width:30 ~height:8 (fig ()) in
  let lines = String.split_on_char '\n' out in
  (* title + 8 canvas rows + axis + xlabels + labels + 2 legend lines *)
  check_true "enough lines" (List.length lines >= 12)

let test_svg_well_formed () =
  let out = P.Svg.render (fig ()) in
  let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
  check_true "svg root" (starts_with "<svg" out);
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check_true "closes" (contains "</svg>" out);
  check_true "polyline" (contains "<polyline" out);
  check_true "legend text" (contains "linear" out)

let test_svg_escapes () =
  let f =
    P.Figure.make ~title:"a < b & c" [ P.Series.make ~label:"s<1>" [| (0., 1.); (1., 2.) |] ]
  in
  let out = P.Svg.render f in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check_true "escaped lt" (contains "a &lt; b &amp; c" out);
  check_false "raw angle in label" (contains "s<1>" out)

let test_csv_format () =
  let out = P.Csv.of_figure (fig ()) in
  let lines = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check string) "header" "series,x,y" (List.hd lines);
  Alcotest.(check int) "rows" (1 + 3 + 2) (List.length lines)

let test_csv_quoting () =
  let f =
    P.Figure.make ~title:"q" [ P.Series.make ~label:"a,b" [| (0., 1.) |] ]
  in
  let out = P.Csv.of_figure f in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check_true "quoted label" (contains "\"a,b\"" out)

let test_file_roundtrips () =
  let dir = Filename.temp_file "gnrflash" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let svg_path = Filename.concat dir "fig.svg" in
  let csv_path = Filename.concat dir "fig.csv" in
  P.Svg.save ~path:svg_path (fig ());
  P.Csv.save_figure ~path:csv_path (fig ());
  check_true "svg exists" (Sys.file_exists svg_path);
  check_true "csv exists" (Sys.file_exists csv_path);
  let ic = open_in csv_path in
  let line = input_line ic in
  close_in ic;
  Alcotest.(check string) "csv header on disk" "series,x,y" line

let () =
  Alcotest.run "render"
    [
      ( "render",
        [
          case "log filtering" test_figure_filters_log_invalid;
          case "empty rejected" test_figure_rejects_empty;
          case "nan dropped" test_figure_drops_nan;
          case "ascii contents" test_ascii_render_contains_content;
          case "ascii dimensions" test_ascii_dimensions;
          case "svg well-formed" test_svg_well_formed;
          case "svg escaping" test_svg_escapes;
          case "csv format" test_csv_format;
          case "csv quoting" test_csv_quoting;
          case "file save roundtrips" test_file_roundtrips;
        ] );
    ]
