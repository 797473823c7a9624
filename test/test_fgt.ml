module F = Gnrflash_device.Fgt
module Cap = Gnrflash_device.Capacitance
module U = Gnrflash_units
open Gnrflash_testing.Testing

let t = F.paper_default

let test_paper_defaults () =
  check_close ~tol:1e-9 "GCR" 0.6 (F.gcr t);
  check_close "XTO" 5e-9 t.F.xto;
  check_close "XCO" 10e-9 t.F.xco;
  check_close "barrier" 3.2 t.F.tunnel_fn.Gnrflash_quantum.Fn.phi_b_ev

let test_worked_example_vfg () =
  (* the paper: VGS = 15 V, GCR = 0.6, QFG = 0 -> VFG = 9 V *)
  check_close ~tol:1e-9 "VFG = 9 V" 9. (F.vfg t ~vgs:15. ~qfg:0.)

let test_vfg_with_charge () =
  (* equation (3): negative charge lowers VFG by Q/CT *)
  let q = -2e-18 in
  check_close ~tol:1e-9 "charge term" (9. +. (q /. F.ct t)) (F.vfg t ~vgs:15. ~qfg:q)

let test_fields_at_t0 () =
  (* tunnel field 9V/5nm = 18 MV/cm; control field 6V/10nm = 6 MV/cm *)
  check_close ~tol:1e-9 "tunnel field" 1.8e9 (F.tunnel_field t ~vgs:15. ~qfg:0.);
  check_close ~tol:1e-9 "control field" 6e8 (F.For_testing.control_field t ~vgs:15. ~qfg:0.)

let test_jin_dominates_at_start () =
  let ji = F.j_in t ~vgs:15. ~qfg:0. and jo = F.j_out t ~vgs:15. ~qfg:0. in
  check_true "Jin huge" (ji > 1e6);
  check_true "Jout tiny" (jo < 1e-5);
  check_true "paper's Fig 4 ordering" (ji /. jo > 1e10)

let test_erase_mirror () =
  (* at VGS = -15 V with no charge, electrons leave the FG: j_out > 0 *)
  let ji = F.j_in t ~vgs:(-15.) ~qfg:0. and jo = F.j_out t ~vgs:(-15.) ~qfg:0. in
  check_true "erase extracts" (jo > 1e6);
  check_true "negligible injection" (ji < jo /. 1e10)

let test_dqfg_sign () =
  check_true "programming charges negative" (F.For_testing.dqfg_dt t ~vgs:15. ~qfg:0. < 0.);
  check_true "erase charges positive" (F.For_testing.dqfg_dt t ~vgs:(-15.) ~qfg:0. > 0.)

let test_threshold_shift () =
  let q = -3e-18 in
  check_close ~tol:1e-12 "dVT = -Q/CFC" (-.q /. t.F.caps.Cap.cfc)
    (F.threshold_shift t ~qfg:q);
  check_true "programming raises VT" (F.threshold_shift t ~qfg:q > 0.)

let test_threshold_inverse () =
  let dvt = 2.5 in
  let q = F.qfg_for_threshold_shift t ~dvt in
  check_close ~tol:1e-12 "roundtrip" dvt (F.threshold_shift t ~qfg:q)

let test_with_gcr () =
  let t2 = F.with_gcr t 0.45 in
  check_close ~tol:1e-9 "new gcr" 0.45 (F.gcr t2);
  check_close ~tol:1e-9 "cfc unchanged" t.F.caps.Cap.cfc t2.F.caps.Cap.cfc;
  check_close ~tol:1e-9 "lower vfg" (0.45 *. 15.) (F.vfg t2 ~vgs:15. ~qfg:0.)

let test_with_xto () =
  let t2 = F.with_xto t 7e-9 in
  check_close "thicker oxide" 7e-9 t2.F.xto;
  check_true "lower field" (F.tunnel_field t2 ~vgs:15. ~qfg:0. < F.tunnel_field t ~vgs:15. ~qfg:0.)

let test_make_validation () =
  Alcotest.check_raises "control thinner than tunnel"
    (Invalid_argument "Fgt.make: control oxide thinner than tunnel oxide") (fun () ->
      ignore
        (F.make ~gcr:0.6 ~xto:(U.metre 10e-9) ~xco:(U.metre 5e-9)
           ~area:(U.square_metre 1e-15) ()))

let test_source_bias () =
  let t2 =
    F.make ~vs:(U.volt 0.05) ~gcr:0.6 ~xto:(U.metre 5e-9) ~xco:(U.metre 10e-9)
      ~area:(U.square_metre 1e-15) ()
  in
  check_true "source bias lowers tunnel field"
    (F.tunnel_field t2 ~vgs:15. ~qfg:0. < F.tunnel_field t ~vgs:15. ~qfg:0.)

let prop_vfg_linear_in_vgs =
  prop "VFG linear in VGS at fixed charge" QCheck2.Gen.(float_range (-20.) 20.)
    (fun vgs ->
       let direct = F.vfg t ~vgs ~qfg:0. in
       abs_float (direct -. (0.6 *. vgs)) < 1e-9)

let prop_currents_nonnegative =
  prop "j_in and j_out are non-negative fluxes"
    QCheck2.Gen.(pair (float_range (-20.) 20.) (float_range (-5e-17) 5e-17))
    (fun (vgs, qfg) ->
       F.j_in t ~vgs ~qfg >= 0. && F.j_out t ~vgs ~qfg >= 0.)

(* Paper-equation oracle for the FN currents: eq (3)
   [VFG = GCR·VGS + QFG/CT], the oxide fields [E_t = (VFG − VS)/XTO] and
   [E_c = (VGS − VFG)/XCO], and eq (1) [J = A·E²·exp(−B/E)] at whichever
   interface injects for each field's sign: electrons enter the FG from the
   channel when [E_t > 0] and from the control gate when [E_c < 0], and
   leave it toward the gate when [E_c > 0] and toward the channel when
   [E_t < 0]. Checked over the paper's box in both polarities, with the
   stored charge within ±1.5 of the bias's saturation charge. *)
let prop_fn_currents_match_paper_equations =
  let fn (p : Gnrflash_quantum.Fn.params) e =
    if e <= 0. then 0. else p.a *. e *. e *. exp (-.p.b /. e)
  in
  let close live oracle = abs_float (live -. oracle) <= 1e-12 *. abs_float oracle in
  prop "j_in and j_out follow paper eqs (1), (3), (6)" ~count:200
    QCheck2.Gen.(
      pair
        (triple (float_range 8. 17.) bool (float_range 0.45 0.60))
        (pair (float_range 5e-9 9e-9) (float_range (-1.5) 1.5)))
    (fun ((vmag, program, gcr), (xto, frac)) ->
       let vgs = if program then vmag else -.vmag in
       let d = F.with_gcr (F.with_xto t xto) gcr in
       match Gnrflash_device.Transient.saturation_charge d ~vgs with
       | Error _ -> false
       | Ok q_sat ->
         let qfg = frac *. q_sat in
         let vfg = (F.gcr d *. vgs) +. (qfg /. F.ct d) in
         let e_t = (vfg -. d.F.vs) /. d.F.xto and e_c = (vgs -. vfg) /. d.F.xco in
         let j_in = fn d.F.tunnel_fn e_t +. fn d.F.control_fn (-.e_c) in
         let j_out = fn d.F.control_fn e_c +. fn d.F.tunnel_fn (-.e_t) in
         close (F.j_in d ~vgs ~qfg) j_in && close (F.j_out d ~vgs ~qfg) j_out)

(* [charging_rate] at the eq-(3) potential is the transient's dQFG/dt, bit
   for bit: [For_testing.dqfg_dt], the per-call rate the fused [Transient]
   kernel is checked against, and [−(Jin − Jout)·area] from the exported
   currents. [Qcap] calls the same export at its band-filling-corrected
   potential. Over the paper's box in both polarities, with the stored
   charge within ±1.5·CT·|VGS|. *)
let prop_charging_rate_at_vfg =
  let bits = Int64.bits_of_float in
  prop "charging_rate at the eq (3) VFG is dQFG/dt" ~count:200
    QCheck2.Gen.(
      pair
        (triple (float_range 8. 17.) bool (float_range 0.45 0.60))
        (pair (float_range 5e-9 9e-9) (float_range (-1.5) 1.5)))
    (fun ((vmag, program, gcr), (xto, frac)) ->
       let vgs = if program then vmag else -.vmag in
       let d = F.with_gcr (F.with_xto t xto) gcr in
       let qfg = frac *. F.ct d *. vmag in
       let rate = F.charging_rate d ~vgs ~vfg:(F.vfg d ~vgs ~qfg) in
       bits rate = bits (F.For_testing.dqfg_dt d ~vgs ~qfg)
       && bits rate
          = bits (-.((F.j_in d ~vgs ~qfg -. F.j_out d ~vgs ~qfg) *. d.F.area)))

let test_control_oxide_decoupled () =
  (* regression: the control-gate stack must come from the control oxide.
     Same geometry with a high-k Al2O3 blocking dielectric: at (vgs, qfg=0)
     the floating-gate potential GCR*VGS and both fields are unchanged, so
     the channel-side injection j_in is bit-identical, while the blocking
     barrier (gate/Al2O3 interface) changes j_out. *)
  let geometry = (0.6, 5e-9, 10e-9, 32e-9 *. 32e-9) in
  let build ?control_oxide () =
    let gcr, xto, xco, area = geometry in
    F.make ?control_oxide ~gcr ~xto:(U.metre xto) ~xco:(U.metre xco)
      ~area:(U.square_metre area) ()
  in
  let sio2 = build () in
  let al2o3 =
    {
      Gnrflash_materials.Oxide.eps_r = 9.0;
      electron_affinity = 1.4;
      m_ox = 0.3;
      breakdown_field = 7.0e8;
    }
  in
  let hik = build ~control_oxide:al2o3 () in
  check_close ~tol:1e-12 "tunnel barrier unchanged"
    sio2.F.tunnel_fn.Gnrflash_quantum.Fn.phi_b_ev
    hik.F.tunnel_fn.Gnrflash_quantum.Fn.phi_b_ev;
  check_true "control barrier changed"
    (sio2.F.control_fn.Gnrflash_quantum.Fn.phi_b_ev
     <> hik.F.control_fn.Gnrflash_quantum.Fn.phi_b_ev);
  check_true "high-k raises CFC"
    (hik.F.caps.Cap.cfc > sio2.F.caps.Cap.cfc);
  (* at a truly fixed field the tunnel current is bit-identical... *)
  let e_fix = 1.2e9 in
  check_abs ~tol:0. "tunnel J identical at fixed field"
    (Gnrflash_quantum.Fn.current_density sio2.F.tunnel_fn ~field:e_fix)
    (Gnrflash_quantum.Fn.current_density hik.F.tunnel_fn ~field:e_fix);
  (* ...and at fixed bias j_in agrees to rounding (gcr is re-derived from
     the capacitor network, so the field carries an ulp of cfc) *)
  check_close ~tol:1e-9 "j_in unchanged at fixed bias"
    (F.j_in sio2 ~vgs:15. ~qfg:0.) (F.j_in hik ~vgs:15. ~qfg:0.);
  (* erase polarity from a 0 V gate: extraction runs through the blocking
     stack, whose FN coefficients now differ *)
  let jo_sio2 = F.j_out sio2 ~vgs:15. ~qfg:0. in
  let jo_hik = F.j_out hik ~vgs:15. ~qfg:0. in
  check_true "j_out responds to the control oxide" (jo_sio2 <> jo_hik);
  (* default control oxide keeps the seed behavior exactly *)
  check_abs ~tol:0. "default degenerates to tunnel oxide"
    (F.j_out sio2 ~vgs:15. ~qfg:0.) (F.j_out t ~vgs:15. ~qfg:0.)

let () =
  Alcotest.run "fgt"
    [
      ( "fgt",
        [
          case "paper defaults" test_paper_defaults;
          case "worked example VFG = 9 V" test_worked_example_vfg;
          case "equation (3) charge term" test_vfg_with_charge;
          case "fields at t = 0" test_fields_at_t0;
          case "Jin >> Jout (Fig 4)" test_jin_dominates_at_start;
          case "erase mirror" test_erase_mirror;
          case "charging sign" test_dqfg_sign;
          case "threshold shift" test_threshold_shift;
          case "threshold inverse" test_threshold_inverse;
          case "with_gcr" test_with_gcr;
          case "with_xto" test_with_xto;
          case "make validation" test_make_validation;
          case "source bias" test_source_bias;
          case "control oxide decoupled" test_control_oxide_decoupled;
          prop_vfg_linear_in_vgs;
          prop_currents_nonnegative;
          prop_fn_currents_match_paper_equations;
          prop_charging_rate_at_vfg;
        ] );
    ]
