module G = Gnrflash_numerics.Grid
open Gnrflash_testing.Testing

let test_linspace_endpoints () =
  let xs = G.linspace 2. 5. 7 in
  Alcotest.(check int) "length" 7 (Array.length xs);
  check_close "first" 2. xs.(0);
  check_close "last" 5. xs.(6)

let test_linspace_spacing () =
  let xs = G.linspace 0. 1. 5 in
  for i = 0 to 3 do
    check_close "step" 0.25 (xs.(i + 1) -. xs.(i))
  done

let test_linspace_descending () =
  let xs = G.linspace 5. 2. 4 in
  check_close "first" 5. xs.(0);
  check_close "last" 2. xs.(3);
  check_true "descending" (xs.(1) < xs.(0))

let test_linspace_invalid () =
  Alcotest.check_raises "n=1" (Invalid_argument "Grid.linspace: n < 2") (fun () ->
      ignore (G.linspace 0. 1. 1))

let test_logspace () =
  let xs = G.logspace 0. 3. 4 in
  check_close "10^0" 1. xs.(0);
  check_close "10^1" 10. xs.(1);
  check_close "10^2" 100. xs.(2);
  check_close "10^3" 1000. xs.(3)

let test_geomspace () =
  let xs = G.geomspace 2. 32. 5 in
  check_close "first" 2. xs.(0);
  check_close "last" 32. xs.(4);
  for i = 0 to 3 do
    check_close "ratio" 2. (xs.(i + 1) /. xs.(i))
  done

let test_geomspace_negative () =
  Alcotest.check_raises "negative endpoint"
    (Invalid_argument "Grid.geomspace: non-positive endpoint") (fun () ->
      ignore (G.geomspace (-1.) 10. 3))

let prop_linspace_monotone =
  prop "linspace monotone for a < b"
    QCheck2.Gen.(pair (float_range (-100.) 100.) (int_range 2 50))
    (fun (a, n) ->
       let xs = G.linspace a (a +. 1.) n in
       let ok = ref true in
       for i = 0 to n - 2 do
         if xs.(i + 1) <= xs.(i) then ok := false
       done;
       !ok)

let prop_geomspace_positive =
  prop "geomspace stays positive"
    QCheck2.Gen.(pair (float_range 0.01 10.) (int_range 2 40))
    (fun (a, n) ->
       let xs = G.geomspace a (a *. 100.) n in
       Array.for_all (fun x -> x > 0.) xs)

let () =
  Alcotest.run "grid"
    [
      ( "grid",
        [
          case "linspace endpoints" test_linspace_endpoints;
          case "linspace spacing" test_linspace_spacing;
          case "linspace descending" test_linspace_descending;
          case "linspace invalid" test_linspace_invalid;
          case "logspace decades" test_logspace;
          case "geomspace ratios" test_geomspace;
          case "geomspace rejects negatives" test_geomspace_negative;
          prop_linspace_monotone;
          prop_geomspace_positive;
        ] );
    ]
