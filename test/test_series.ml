module S = Gnrflash_plot.Series
open Gnrflash_testing.Testing

let pts = [| (0., 1.); (1., 3.); (2., 2.) |]

let test_make_copies () =
  let src = Array.copy pts in
  let s = S.make ~label:"a" src in
  src.(0) <- (99., 99.);
  check_close "input copied" 0. (fst s.S.points.(0))

let test_filter () =
  let s = S.filter (fun (_, y) -> y > 1.5) (S.make ~label:"a" pts) in
  Alcotest.(check int) "two survive" 2 (Array.length s.S.points)

let test_xs_ys () =
  let s = S.make ~label:"a" pts in
  Alcotest.(check (array (float 0.))) "ys" [| 1.; 3.; 2. |] (S.ys s)

let test_extent () =
  let s1 = S.make ~label:"a" pts in
  let s2 = S.make ~label:"b" [| (-1., 7.) |] in
  let (xmin, xmax), (ymin, ymax) = S.extent [ s1; s2 ] in
  check_close "xmin" (-1.) xmin;
  check_close "xmax" 2. xmax;
  check_close "ymin" 1. ymin;
  check_close "ymax" 7. ymax

let test_extent_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Series.extent: all series empty")
    (fun () -> ignore (S.extent [ S.make ~label:"a" [||] ]))

let () =
  Alcotest.run "series"
    [
      ( "series",
        [
          case "make copies input" test_make_copies;
          case "filter" test_filter;
          case "xs/ys" test_xs_ys;
          case "extent" test_extent;
          case "extent empty" test_extent_empty;
        ] );
    ]
