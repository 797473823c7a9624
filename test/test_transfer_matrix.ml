module Tm = Gnrflash_quantum.Transfer_matrix
module B = Gnrflash_quantum.Barrier
module W = Gnrflash_quantum.Wkb
module C = Gnrflash_physics.Constants
open Gnrflash_testing.Testing

let ev = C.ev

(* Exact rectangular-barrier transmission for equal masses everywhere. *)
let exact_rectangular ~v ~d ~m ~e =
  if e >= v then 1.
  else begin
    let k = sqrt (2. *. m *. e) /. C.hbar in
    let kappa = sqrt (2. *. m *. (v -. e)) /. C.hbar in
    let s = sinh (kappa *. d) in
    1. /. (1. +. (((k *. k) +. (kappa *. kappa)) ** 2. /. (4. *. k *. k *. kappa *. kappa) *. s *. s))
  end

let test_rectangular_vs_exact () =
  let v = 1. *. ev and d = 1e-9 in
  (* near-flat profile with electron mass inside = m0 so the analytic formula applies *)
  let b = B.make ~m_eff:C.m0 [ (0., v); (d, v *. (1. -. 1e-12)) ] in
  List.iter
    (fun e_ev ->
       let e = e_ev *. ev in
       let got = Tm.transmission ~steps:200 b ~energy:e in
       let want = exact_rectangular ~v ~d ~m:C.m0 ~e in
       check_close ~tol:1e-3 (Printf.sprintf "E = %g eV" e_ev) want got)
    [ 0.2; 0.5; 0.8 ]

let test_zero_energy_blocked () =
  let b = B.triangular ~phi_b:(3.2 *. ev) ~field:1e9 ~m_eff:(0.42 *. C.m0) in
  check_close "no propagating wave" 0. (Tm.transmission b ~energy:0.)

let test_bounds () =
  let b = B.triangular ~phi_b:(3.2 *. ev) ~field:1.5e9 ~m_eff:(0.42 *. C.m0) in
  let t = Tm.transmission b ~energy:(0.3 *. ev) in
  check_in "in [0,1]" ~lo:0. ~hi:1. t

let test_matches_wkb_order_of_magnitude () =
  (* deep tunneling: TMM and WKB agree on the exponent within ~20% *)
  let phi = 3.2 *. ev and m = 0.42 *. C.m0 in
  let field = 1.2e9 in
  let thickness = 5e-9 in
  let b = B.trapezoidal ~phi_b:phi ~v_ox:(field *. thickness) ~thickness ~m_eff:m in
  let e = 0.05 *. ev in
  let t_tm = Tm.transmission ~steps:500 b ~energy:e in
  let t_wkb = W.transmission b ~energy:e in
  check_true "both tiny" (t_tm < 1e-6 && t_wkb < 1e-6);
  check_in "log agreement" ~lo:0.8 ~hi:1.25 (log t_tm /. log t_wkb)

let test_transmission_increases_with_energy () =
  let b = B.triangular ~phi_b:(3.2 *. ev) ~field:1.2e9 ~m_eff:(0.42 *. C.m0) in
  let t1 = Tm.transmission b ~energy:(0.1 *. ev) in
  let t2 = Tm.transmission b ~energy:(0.8 *. ev) in
  check_true "monotone" (t2 > t1)

let test_step_convergence () =
  let b = B.triangular ~phi_b:(3.2 *. ev) ~field:1.2e9 ~m_eff:(0.42 *. C.m0) in
  let e = 0.2 *. ev in
  let t200 = Tm.transmission ~steps:200 b ~energy:e in
  let t800 = Tm.transmission ~steps:800 b ~energy:e in
  check_close ~tol:0.02 "staircase converged" t800 t200

let test_spectrum () =
  let b = B.triangular ~phi_b:(3.2 *. ev) ~field:1.2e9 ~m_eff:(0.42 *. C.m0) in
  let es = [| 0.1 *. ev; 0.5 *. ev; 1.0 *. ev |] in
  let ts = Array.map (fun e -> Tm.transmission b ~energy:e) es in
  Alcotest.(check int) "length" 3 (Array.length ts);
  check_true "monotone spectrum" (ts.(0) < ts.(1) && ts.(1) < ts.(2))

let prop_bounded =
  prop "T in [0,1] over random fields/energies" ~count:40
    QCheck2.Gen.(pair (float_range 6e8 2e9) (float_range 0.01 3.))
    (fun (field, e_ev) ->
       let b = B.triangular ~phi_b:(3.2 *. ev) ~field ~m_eff:(0.42 *. C.m0) in
       let t = Tm.transmission ~steps:150 b ~energy:(e_ev *. ev) in
       t >= 0. && t <= 1.)

let () =
  Alcotest.run "transfer_matrix"
    [
      ( "transfer_matrix",
        [
          case "rectangular vs analytic" test_rectangular_vs_exact;
          case "zero energy blocked" test_zero_energy_blocked;
          case "bounds" test_bounds;
          case "agrees with WKB exponent" test_matches_wkb_order_of_magnitude;
          case "monotone in energy" test_transmission_increases_with_energy;
          case "staircase convergence" test_step_convergence;
          case "spectrum helper" test_spectrum;
          prop_bounded;
        ] );
    ]
