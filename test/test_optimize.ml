module O = Gnrflash_numerics.Optimize
open Gnrflash_testing.Testing

let test_nelder_mead_rosenbrock () =
  let rosen x =
    let a = 1. -. x.(0) and b = x.(1) -. (x.(0) *. x.(0)) in
    (a *. a) +. (100. *. b *. b)
  in
  let x, fx = O.nelder_mead rosen [| -1.2; 1. |] in
  check_close ~tol:1e-3 "x" 1. x.(0);
  check_close ~tol:1e-3 "y" 1. x.(1);
  check_true "objective tiny" (fx < 1e-6)

let test_nelder_mead_quadratic_3d () =
  let f x =
    ((x.(0) -. 1.) ** 2.) +. ((x.(1) -. 2.) ** 2.) +. ((x.(2) +. 3.) ** 2.)
  in
  let x, _ = O.nelder_mead f [| 0.; 0.; 0. |] in
  check_close ~tol:1e-4 "x0" 1. x.(0);
  check_close ~tol:1e-4 "x1" 2. x.(1);
  check_close ~tol:1e-4 "x2" (-3.) x.(2)

let test_nelder_mead_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Optimize.nelder_mead: empty point")
    (fun () -> ignore (O.nelder_mead (fun _ -> 0.) [||]))

let prop_nelder_mead_never_worse_than_start =
  prop "result no worse than initial point" ~count:50
    QCheck2.Gen.(pair (float_range (-5.) 5.) (float_range (-5.) 5.))
    (fun (a, b) ->
       let f x = (x.(0) *. x.(0)) +. (abs_float x.(1) *. 3.) +. sin (x.(0) *. 2.) in
       let x0 = [| a; b |] in
       let _, fx = O.nelder_mead f x0 in
       fx <= f x0 +. 1e-12)

let () =
  Alcotest.run "optimize"
    [
      ( "optimize",
        [
          case "nelder-mead rosenbrock" test_nelder_mead_rosenbrock;
          case "nelder-mead 3d quadratic" test_nelder_mead_quadratic_3d;
          case "nelder-mead empty input" test_nelder_mead_empty;
          prop_nelder_mead_never_worse_than_start;
        ] );
    ]
