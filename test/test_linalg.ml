module L = Gnrflash_numerics.Linalg
open Gnrflash_testing.Testing

let test_solve_tridiag () =
  let sub = [| 0.; 1.; 1. |] and diag = [| 2.; 2.; 2. |] and sup = [| 1.; 1.; 0. |] in
  let x = check_ok "tridiag" (L.solve_tridiag ~sub ~diag ~sup [| 3.; 4.; 3. |]) in
  (* verify by substitution *)
  check_close ~tol:1e-12 "row0" 3. ((2. *. x.(0)) +. x.(1));
  check_close ~tol:1e-12 "row1" 4. (x.(0) +. (2. *. x.(1)) +. x.(2));
  check_close ~tol:1e-12 "row2" 3. (x.(1) +. (2. *. x.(2)))

let test_cmat2 () =
  let open Complex in
  let m = { L.a = one; b = i; c = zero; d = one } in
  let p = L.cmat2_mul m m in
  check_close "a" 1. p.L.a.re;
  check_close "b.im doubles" 2. p.L.b.im

let test_cmat2_identity () =
  let open Complex in
  let m = { L.a = { re = 2.; im = 1. }; b = i; c = one; d = { re = 0.; im = -3. } } in
  let p = L.cmat2_mul m L.cmat2_id in
  check_close "preserved" m.L.a.re p.L.a.re;
  check_close "preserved" m.L.d.im p.L.d.im

let () =
  Alcotest.run "linalg"
    [
      ( "linalg",
        [
          case "tridiagonal" test_solve_tridiag;
          case "complex 2x2 multiply" test_cmat2;
          case "complex 2x2 identity" test_cmat2_identity;
        ] );
    ]
