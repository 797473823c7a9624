module Q = Gnrflash_numerics.Quadrature
open Gnrflash_testing.Testing

let test_simpson_cubic_exact () =
  (* Simpson is exact for cubics *)
  check_close "∫x^3 over [0,2]" 4. (Q.For_testing.simpson (fun x -> x ** 3.) 0. 2. ~n:2)

let test_simpson_sin () =
  check_close ~tol:1e-8 "∫sin over [0,pi]" 2. (Q.For_testing.simpson sin 0. Float.pi ~n:200)

let test_adaptive_simpson_exp () =
  check_close ~tol:1e-9 "∫e^x over [0,1]" (exp 1. -. 1.)
    (Q.adaptive_simpson exp 0. 1.)

let test_adaptive_simpson_peak () =
  (* sharply peaked integrand: 1/(1e-4 + x^2) on [-1,1] *)
  let f x = 1. /. (1e-4 +. (x *. x)) in
  let exact = 2. /. 1e-2 *. atan (1. /. 1e-2) in
  check_close ~tol:1e-7 "peaked integrand" exact (Q.adaptive_simpson ~tol:1e-12 f (-1.) 1.)

let test_gauss_legendre_poly () =
  (* order n integrates degree 2n-1 exactly: order 5 handles x^9 *)
  let f x = x ** 9. in
  check_close ~tol:1e-12 "∫x^9 over [0,1]" 0.1
    (Q.gauss_legendre (Q.gauss_legendre_rule 5) f 0. 1.)

let test_adaptive_simpson_budget_exhaustion () =
  (* quadrature cannot return a result mid-recursion, so a starved budget
     surfaces as the typed Solver_failure exception rather than a hang *)
  let module B = Gnrflash_resilience.Budget in
  let module E = Gnrflash_resilience.Solver_error in
  let b = B.make ~max_evals:2 () in
  B.with_budget b (fun () ->
      match Q.adaptive_simpson exp 0. 1. with
      | _ -> Alcotest.fail "starved integration must not complete"
      | exception E.Solver_failure e ->
        Alcotest.(check string) "typed budget error" "budget_exhausted"
          (E.label e);
        Alcotest.(check string) "solver attributed"
          "Quadrature.adaptive_simpson" e.E.solver)

let test_gauss_legendre_nodes_symmetry () =
  (* odd moments over [-1, 1] cancel only if nodes and weights are
     symmetric; the zeroth moment is the weight sum *)
  let rule = Q.gauss_legendre_rule 8 in
  for k = 0 to 7 do
    let p = float_of_int ((2 * k) + 1) in
    check_abs ~tol:1e-15 "odd moment" 0. (Q.gauss_legendre rule (fun x -> x ** p) (-1.) 1.)
  done;
  check_close ~tol:1e-12 "weights sum to 2" 2.
    (Q.gauss_legendre rule (fun _ -> 1.) (-1.) 1.)

(* The rules the Tsu–Esaki current runs on: an n-point rule integrates
   x^(2n-1) over [0, 1] to 1/(2n), and its weights sum to 2. *)
let test_gauss_legendre_tsu_esaki_orders () =
  List.iter
    (fun n ->
       let rule = Q.gauss_legendre_rule n in
       let p = float_of_int ((2 * n) - 1) in
       check_close ~tol:1e-12
         (Printf.sprintf "n = %d: ∫x^%d over [0,1]" n ((2 * n) - 1))
         (1. /. float_of_int (2 * n))
         (Q.gauss_legendre rule (fun x -> x ** p) 0. 1.);
       check_close ~tol:1e-12 (Printf.sprintf "n = %d: weights sum to 2" n) 2.
         (Q.gauss_legendre rule (fun _ -> 1.) (-1.) 1.))
    [ 48; 64 ];
  Alcotest.check_raises "no 0-point rule"
    (Invalid_argument "Quadrature.gauss_legendre_rule: n < 1") (fun () ->
      ignore (Q.gauss_legendre_rule 0))

let test_gauss_legendre_gaussian () =
  let f x = exp (-.(x *. x)) in
  let erf1 = 0.842700792949715 *. sqrt Float.pi /. 1. in
  (* ∫_{-1}^{1} e^{-x^2} = sqrt(pi) erf(1) *)
  check_close ~tol:1e-10 "gaussian" erf1
    (Q.gauss_legendre (Q.gauss_legendre_rule 24) f (-1.) 1.)

let prop_simpson_matches_adaptive =
  prop "composite vs adaptive on smooth f" QCheck2.Gen.(float_range 0.5 3.)
    (fun b ->
       let f x = sin (x *. x) in
       let a = Q.For_testing.simpson f 0. b ~n:2000 in
       let c = Q.adaptive_simpson ~tol:1e-11 f 0. b in
       abs_float (a -. c) < 1e-6)

let rule4 = Q.gauss_legendre_rule 4

let prop_gl_linear_exact =
  prop "gauss-legendre exact on affine"
    QCheck2.Gen.(pair (float_range (-5.) 5.) (float_range (-5.) 5.))
    (fun (m, c) ->
       let f x = (m *. x) +. c in
       let exact = (m /. 2. *. ((3. ** 2.) -. 1.)) +. (c *. 2.) in
       abs_float (Q.gauss_legendre rule4 f 1. 3. -. exact) < 1e-9 *. (1. +. abs_float exact))

let () =
  Alcotest.run "quadrature"
    [
      ( "quadrature",
        [
          case "simpson cubic exact" test_simpson_cubic_exact;
          case "simpson sin" test_simpson_sin;
          case "adaptive exp" test_adaptive_simpson_exp;
          case "adaptive peaked" test_adaptive_simpson_peak;
          case "adaptive budget exhaustion" test_adaptive_simpson_budget_exhaustion;
          case "gauss-legendre degree 9" test_gauss_legendre_poly;
          case "gauss-legendre node symmetry" test_gauss_legendre_nodes_symmetry;
          case "gauss-legendre gaussian" test_gauss_legendre_gaussian;
          case "gauss-legendre 48 and 64 points" test_gauss_legendre_tsu_esaki_orders;
          prop_simpson_matches_adaptive;
          prop_gl_linear_exact;
        ] );
    ]
