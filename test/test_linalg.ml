module L = Gnrflash_numerics.Linalg
open Gnrflash_testing.Testing

let test_dot () = check_close "dot" 32. (L.dot [| 1.; 2.; 3. |] [| 4.; 5.; 6. |])

let test_norm2 () = check_close "norm" 5. (L.norm2 [| 3.; 4. |])

let test_vector_ops () =
  let a = [| 1.; 2. |] and b = [| 3.; 5. |] in
  check_close "add" 4. (L.add a b).(0);
  check_close "sub" (-3.) (L.sub a b).(1);
  check_close "scale" 4. (L.scale 2. a).(1)

let test_mat_vec () =
  let m = [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let v = L.mat_vec m [| 1.; 1. |] in
  check_close "row0" 3. v.(0);
  check_close "row1" 7. v.(1)

let test_mat_mul () =
  let a = [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let c = L.mat_mul a b in
  check_close "swap columns" 2. c.(0).(0);
  check_close "swap columns" 1. c.(0).(1)

let test_transpose () =
  let t = L.transpose [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  Alcotest.(check int) "rows" 3 (Array.length t);
  check_close "t(0,1)" 4. t.(0).(1)

let test_identity_mul () =
  let a = [| [| 2.; 1. |]; [| 7.; 3. |] |] in
  let i = L.identity 2 in
  let ai = L.mat_mul a i in
  check_close "a*i = a" a.(1).(0) ai.(1).(0)

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
          case "dot" test_dot;
          case "norm2" test_norm2;
          case "vector ops" test_vector_ops;
          case "mat_vec" test_mat_vec;
          case "mat_mul" test_mat_mul;
          case "transpose" test_transpose;
          case "identity" test_identity_mul;
          case "tridiagonal" test_solve_tridiag;
          case "complex 2x2 multiply" test_cmat2;
          case "complex 2x2 identity" test_cmat2_identity;
        ] );
    ]
