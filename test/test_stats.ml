module S = Gnrflash_numerics.Stats
open Gnrflash_testing.Testing

let sample = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |]

let test_mean () = check_close "mean" 5. (S.mean sample)

let test_variance () =
  (* population variance of this classic sample is 4; sample variance 32/7 *)
  check_close "sample variance" (32. /. 7.) (S.variance sample)

let test_std () = check_close "std" (sqrt (32. /. 7.)) (S.std sample)

let test_single_point () =
  check_close "variance of singleton" 0. (S.variance [| 42. |])

let test_min_max () =
  let lo, hi = S.min_max sample in
  check_close "min" 2. lo;
  check_close "max" 9. hi

let test_median_odd () = check_close "median" 3. (S.median [| 5.; 1.; 3. |])

let test_median_even () = check_close "median" 4.5 (S.median sample)

let test_percentile () =
  check_close "p0" 2. (S.percentile 0. sample);
  check_close "p100" 9. (S.percentile 100. sample);
  check_close "p50 = median" (S.median sample) (S.percentile 50. sample)

let test_percentile_range () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Stats.percentile: p out of [0, 100]") (fun () ->
      ignore (S.percentile 101. sample))

let test_histogram () =
  let h = S.histogram ~bins:7 sample in
  Alcotest.(check int) "bins" 7 (Array.length h.S.counts);
  Alcotest.(check int) "edges" 8 (Array.length h.S.edges);
  Alcotest.(check int) "total count" (Array.length sample)
    (Array.fold_left ( + ) 0 h.S.counts);
  check_close "first edge" 2. h.S.edges.(0);
  check_close "last edge" 9. h.S.edges.(7)

let test_histogram_degenerate () =
  let h = S.histogram ~bins:3 [| 5.; 5.; 5. |] in
  Alcotest.(check int) "all in some bin" 3 (Array.fold_left ( + ) 0 h.S.counts)

let test_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.mean: empty sample")
    (fun () -> ignore (S.mean [||]))

let prop_mean_bounded =
  prop "mean within min..max"
    QCheck2.Gen.(array_size (int_range 1 30) (float_range (-100.) 100.))
    (fun xs ->
       let lo, hi = S.min_max xs in
       let m = S.mean xs in
       m >= lo -. 1e-9 && m <= hi +. 1e-9)

let prop_percentile_monotone =
  prop "percentile monotone in p"
    QCheck2.Gen.(pair
                   (array_size (int_range 2 30) (float_range (-50.) 50.))
                   (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun (xs, (p1, p2)) ->
       let lo = min p1 p2 and hi = max p1 p2 in
       S.percentile lo xs <= S.percentile hi xs +. 1e-9)

let prop_variance_nonneg =
  prop "variance non-negative"
    QCheck2.Gen.(array_size (int_range 1 30) (float_range (-100.) 100.))
    (fun xs -> S.variance xs >= 0.)

let () =
  Alcotest.run "stats"
    [
      ( "stats",
        [
          case "mean" test_mean;
          case "variance" test_variance;
          case "std" test_std;
          case "singleton variance" test_single_point;
          case "min_max" test_min_max;
          case "median odd" test_median_odd;
          case "median even" test_median_even;
          case "percentiles" test_percentile;
          case "percentile range check" test_percentile_range;
          case "histogram" test_histogram;
          case "histogram degenerate" test_histogram_degenerate;
          case "empty rejected" test_empty_rejected;
          prop_mean_bounded;
          prop_percentile_monotone;
          prop_variance_nonneg;
        ] );
    ]
