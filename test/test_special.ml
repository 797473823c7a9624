module S = Gnrflash_numerics.Special
open Gnrflash_testing.Testing

(* Reference values: Abramowitz & Stegun / DLMF tables. erf is reached
   only as [1 - erfc], so its table and symmetries are checked on [erfc]. *)

let test_erf_values () =
  check_abs ~tol:2e-7 "erf 0" 0. (1. -. S.erfc 0.);
  check_abs ~tol:2e-7 "erf 0.5" 0.5204998778 (1. -. S.erfc 0.5);
  check_abs ~tol:2e-7 "erf 1" 0.8427007929 (1. -. S.erfc 1.);
  check_abs ~tol:2e-7 "erf 2" 0.9953222650 (1. -. S.erfc 2.)

let test_erf_odd () =
  (* erf odd <=> erfc(x) + erfc(-x) = 2 *)
  check_abs ~tol:1e-12 "odd symmetry" 2. (S.erfc 0.7 +. S.erfc (-0.7))

let test_erfc_complement () =
  (* erfc(-x) = 1 + erf(x) = 2 - erfc(x), at the table value erf(1) *)
  check_abs ~tol:2e-7 "erfc(-1) = 1 + erf 1" 1.8427007929 (S.erfc (-1.))

let test_erfc_tail () =
  (* erfc(3) = 2.20904970e-5 *)
  check_close ~tol:1e-4 "erfc 3" 2.2090497e-5 (S.erfc 3.)

let test_airy_at_zero () =
  let ai, ai', bi, bi' = S.airy_all 0. in
  check_close ~tol:1e-12 "Ai(0)" 0.3550280538878172 ai;
  check_close ~tol:1e-12 "Ai'(0)" (-0.2588194037928068) ai';
  check_close ~tol:1e-12 "Bi(0)" 0.6149266274460007 bi;
  check_close ~tol:1e-12 "Bi'(0)" 0.4482883573538264 bi'

let test_airy_at_one () =
  let ai, ai', bi, bi' = S.airy_all 1. in
  check_close ~tol:1e-10 "Ai(1)" 0.1352924163128814 ai;
  check_close ~tol:1e-10 "Ai'(1)" (-0.1591474412967932) ai';
  check_close ~tol:1e-10 "Bi(1)" 1.2074235949528713 bi;
  check_close ~tol:1e-10 "Bi'(1)" 0.9324359333927756 bi'

(* [(x, Ai(x), Bi(x))] with tolerance *)
let check_ai_bi tol (x, ai_ref, bi_ref) =
  let ai, _, bi, _ = S.airy_all x in
  check_close ~tol (Printf.sprintf "Ai(%g)" x) ai_ref ai;
  check_close ~tol (Printf.sprintf "Bi(%g)" x) bi_ref bi

let test_airy_negative () =
  check_ai_bi 1e-9 (-1., 0.5355608832923521, 0.1039973894969446);
  check_ai_bi 1e-7 (-5., 0.3507610090241142, -0.1383691349016005)

let test_airy_asymptotic () =
  (* references from mpmath at 20 digits *)
  check_ai_bi 1e-6 (5., 1.0834442813607442e-4, 657.79204417117118);
  let ai10, _, _, _ = S.airy_all 10. and ai8, _, _, _ = S.airy_all (-8.) in
  check_close ~tol:1e-7 "Ai(10)" 1.1047532552898686e-10 ai10;
  check_close ~tol:1e-7 "Ai(-8)" (-0.052705050356386203) ai8

let test_airy_wronskian () =
  (* Ai Bi' - Ai' Bi = 1/pi at every x *)
  List.iter
    (fun x ->
       let ai, ai', bi, bi' = S.airy_all x in
       check_close ~tol:1e-7
         (Printf.sprintf "wronskian at %g" x)
         (1. /. Float.pi)
         ((ai *. bi') -. (ai' *. bi)))
    [ -6.; -3.; -1.; 0.; 0.5; 2.; 4.; 6.; 9. ]

let test_airy_ode_residual () =
  (* numerical second derivative must satisfy y'' = x y *)
  let h = 1e-4 in
  List.iter
    (fun x ->
       let y m = let ai, _, _, _ = S.airy_all (x +. m) in ai in
       let second = (y h -. (2. *. y 0.) +. y (-.h)) /. (h *. h) in
       check_close ~tol:1e-4
         (Printf.sprintf "Ai'' = x Ai at %g" x)
         (x *. y 0.) second)
    [ 0.5; 1.5; 3. ]

let prop_airy_continuity_at_cutoff =
  (* the series/asymptotic switch at |x| = 5.5 must be seamless: the jump
     across the boundary must not exceed the natural variation Ai'(x)·dx
     plus the asymptotic truncation error (~1e-8 relative there) *)
  prop "Ai continuous at the method boundary" ~count:50
    QCheck2.Gen.(float_range 5.3 5.7)
    (fun x ->
       let dx = 1e-6 in
       let left, _, _, _ = S.airy_all (x -. dx) and right, _, _, _ = S.airy_all (x +. dx) in
       let _, slope, _, _ = S.airy_all x in
       let slope_allowance = abs_float slope *. 2. *. dx in
       abs_float (left -. right) <= slope_allowance +. (1e-7 *. abs_float left))

let prop_erf_monotone =
  prop "erf monotone" QCheck2.Gen.(pair (float_range (-3.) 3.) (float_range 0.001 1.))
    (fun (x, d) -> S.erfc (x +. d) <= S.erfc x)

let () =
  Alcotest.run "special"
    [
      ( "special",
        [
          case "erf table values" test_erf_values;
          case "erf odd" test_erf_odd;
          case "erfc complement" test_erfc_complement;
          case "erfc tail" test_erfc_tail;
          case "airy at 0" test_airy_at_zero;
          case "airy at 1" test_airy_at_one;
          case "airy negative axis" test_airy_negative;
          case "airy asymptotic region" test_airy_asymptotic;
          case "airy wronskian" test_airy_wronskian;
          case "airy satisfies its ODE" test_airy_ode_residual;
          prop_airy_continuity_at_cutoff;
          prop_erf_monotone;
        ] );
    ]
