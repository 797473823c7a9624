module R = Gnrflash_numerics.Regression
open Gnrflash_testing.Testing

let test_ols_exact_line () =
  let xs = [| 0.; 1.; 2.; 3. |] in
  let ys = Array.map (fun x -> (2.5 *. x) -. 1. ) xs in
  let f = check_ok "ols" (R.ols xs ys) in
  check_close ~tol:1e-10 "slope" 2.5 f.R.slope;
  check_close ~tol:1e-10 "intercept" (-1.) f.R.intercept;
  check_close ~tol:1e-10 "r2" 1. f.R.r_squared

let test_ols_noisy () =
  let xs = Array.init 50 float_of_int in
  let ys = Array.mapi (fun i x -> (3. *. x) +. (if i mod 2 = 0 then 1. else -1.)) xs in
  let f = check_ok "ols" (R.ols xs ys) in
  check_close ~tol:1e-2 "slope" 3. f.R.slope;
  check_in "r2 high" ~lo:0.99 ~hi:1. f.R.r_squared;
  check_true "stderr positive" (f.R.slope_stderr > 0.)

let test_ols_too_few () = check_error "1 point" (R.ols [| 1. |] [| 1. |])

let test_ols_constant_x () =
  check_error "vertical line" (R.ols [| 2.; 2.; 2. |] [| 1.; 2.; 3. |])

let test_wls_downweights_outlier () =
  let xs = [| 0.; 1.; 2.; 3.; 4. |] in
  let ys = [| 0.; 1.; 2.; 3.; 100. |] in
  let w_out = [| 1.; 1.; 1.; 1.; 0. |] in
  let f = check_ok "wls" (R.wls ~weights:w_out xs ys) in
  check_close ~tol:1e-9 "slope ignoring outlier" 1. f.R.slope

let test_wls_negative_weight () =
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Regression.wls: negative weight") (fun () ->
      ignore (R.wls ~weights:[| 1.; -1. |] [| 0.; 1. |] [| 0.; 1. |]))

let test_r_squared_flat () =
  (* constant ys: residuals are zero, r2 defined as 1 *)
  let f = check_ok "flat" (R.ols [| 0.; 1.; 2. |] [| 5.; 5.; 5. |]) in
  check_close "slope" 0. f.R.slope;
  check_close "r2" 1. f.R.r_squared

let prop_ols_recovers_line =
  prop "ols recovers synthetic slope/intercept"
    QCheck2.Gen.(pair (float_range (-10.) 10.) (float_range (-10.) 10.))
    (fun (m, c) ->
       let xs = Array.init 10 float_of_int in
       let ys = Array.map (fun x -> (m *. x) +. c) xs in
       match R.ols xs ys with
       | Error _ -> false
       | Ok f ->
         abs_float (f.R.slope -. m) <= 1e-8 *. (1. +. abs_float m)
         && abs_float (f.R.intercept -. c) <= 1e-7 *. (1. +. abs_float c))

let prop_wls_uniform_equals_ols =
  prop "uniform weights reduce to ols" QCheck2.Gen.(float_range 0.1 10.)
    (fun w ->
       let xs = [| 0.; 1.; 2.; 5. |] and ys = [| 1.; 2.; 2.5; 7. |] in
       match R.ols xs ys, R.wls ~weights:(Array.make 4 w) xs ys with
       | Ok a, Ok b -> abs_float (a.R.slope -. b.R.slope) < 1e-9
       | _ -> false)

let () =
  Alcotest.run "regression"
    [
      ( "regression",
        [
          case "exact line" test_ols_exact_line;
          case "noisy line" test_ols_noisy;
          case "too few points" test_ols_too_few;
          case "constant x" test_ols_constant_x;
          case "wls outlier" test_wls_downweights_outlier;
          case "wls negative weight" test_wls_negative_weight;
          case "flat data r2" test_r_squared_flat;
          prop_ols_recovers_line;
          prop_wls_uniform_equals_ols;
        ] );
    ]
