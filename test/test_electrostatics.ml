module E = Gnrflash_device.Electrostatics
module F = Gnrflash_device.Fgt
open Gnrflash_testing.Testing

let stack = E.of_fgt F.paper_default

let test_matches_divider_no_charge () =
  let s = check_ok "solve" (E.solve stack ~vgs:15. ~vs:0. ~sigma_fg:0.) in
  let divider = E.vfg_divider stack ~vgs:15. ~vs:0. ~sigma_fg:0. in
  check_close ~tol:1e-6 "FD = series capacitors" divider s.E.vfg;
  (* xco = 2*xto with equal eps: VFG = VGS/3 * ... C_co = eps/10nm, C_to = eps/5nm
     -> VFG = (C_co*15)/(C_co+C_to) = (1/10*15)/(1/10+1/5) = 1.5/0.3 = 5 V *)
  check_close ~tol:1e-6 "two-plate divider value" 5. s.E.vfg

let test_matches_divider_with_charge () =
  let sigma = -0.01 in
  let s = check_ok "solve" (E.solve stack ~vgs:15. ~vs:0. ~sigma_fg:sigma) in
  let divider = E.vfg_divider stack ~vgs:15. ~vs:0. ~sigma_fg:sigma in
  check_close ~tol:1e-6 "with sheet charge" divider s.E.vfg;
  check_true "negative charge lowers VFG" (s.E.vfg < 5.)

let test_fields_consistent () =
  let s = check_ok "solve" (E.solve stack ~vgs:15. ~vs:0. ~sigma_fg:0.) in
  check_close ~tol:1e-6 "tunnel field" (s.E.vfg /. stack.E.xto) s.E.field_tunnel;
  check_close ~tol:1e-6 "control field" ((15. -. s.E.vfg) /. stack.E.xco) s.E.field_control;
  (* Gauss law at the uncharged FG: eps_co*E_co = eps_to*E_to *)
  check_close ~tol:1e-6 "flux continuity" s.E.field_control
    (s.E.field_tunnel *. stack.E.eps_r_to /. stack.E.eps_r_co *. (stack.E.xto /. stack.E.xto))

let test_potential_profile_piecewise_linear () =
  let s = check_ok "solve" (E.solve stack ~vgs:15. ~vs:0. ~sigma_fg:0.) in
  let n = Array.length s.E.potential in
  check_close "left boundary" 15. s.E.potential.(0);
  check_close "right boundary" 0. s.E.potential.(n - 1);
  (* monotone decreasing from gate to channel for positive VGS, no charge *)
  for i = 0 to n - 2 do
    check_true "monotone potential" (s.E.potential.(i + 1) <= s.E.potential.(i) +. 1e-9)
  done

let test_source_bias () =
  let s = check_ok "solve" (E.solve stack ~vgs:15. ~vs:0.05 ~sigma_fg:0.) in
  let divider = E.vfg_divider stack ~vgs:15. ~vs:0.05 ~sigma_fg:0. in
  check_close ~tol:1e-6 "source bias handled" divider s.E.vfg

let test_resolution_independence () =
  let coarse = { stack with E.nodes_per_layer = 10 } in
  let fine = { stack with E.nodes_per_layer = 200 } in
  let sc = check_ok "coarse" (E.solve coarse ~vgs:15. ~vs:0. ~sigma_fg:(-0.02)) in
  let sf = check_ok "fine" (E.solve fine ~vgs:15. ~vs:0. ~sigma_fg:(-0.02)) in
  check_close ~tol:1e-9 "grid independent (piecewise-linear exact)" sf.E.vfg sc.E.vfg

let test_eq3_agreement_with_fgt () =
  (* the Poisson VFG must agree with equation (3) when the network is the
     pure two-plate divider: build an Fgt with matching caps. Here we
     check the charge term's sign and scale through both models. *)
  let t = F.paper_default in
  let area = t.F.area in
  let q = -1e-18 in
  let sigma = q /. area in
  let s = check_ok "solve" (E.solve stack ~vgs:15. ~vs:0. ~sigma_fg:sigma) in
  (* eq (3) uses the 4-capacitor CT, Poisson the 2-plate stack: the charge
     term q/C differs by the CFS+CFB+CFD contribution; both must move VFG
     down by a comparable amount *)
  let vfg_eq3 = F.vfg t ~vgs:15. ~qfg:q in
  check_true "same direction" (s.E.vfg < 5. && vfg_eq3 < 9.);
  let drop_poisson = 5. -. s.E.vfg in
  let drop_eq3 = 9. -. vfg_eq3 in
  check_in "charge term same scale" ~lo:(drop_eq3 /. 3.) ~hi:(drop_eq3 *. 3.) drop_poisson

(* A device whose blocking dielectric is Al2O3 (test_fgt's fixture): the
   stack's control oxide is the plate behind the device's own cfc, not
   SiO2's, and its tunnel oxide stays SiO2. *)
let test_control_oxide_from_device () =
  let al2o3 =
    {
      Gnrflash_materials.Oxide.eps_r = 9.0;
      electron_affinity = 1.4;
      m_ox = 0.3;
      breakdown_field = 7.0e8;
    }
  in
  let module U = Gnrflash_units in
  let t =
    F.make ~control_oxide:al2o3 ~gcr:0.6 ~xto:(U.metre 5e-9) ~xco:(U.metre 10e-9)
      ~area:(U.square_metre (32e-9 *. 32e-9)) ()
  in
  let s = E.of_fgt t in
  let c_co = Gnrflash_physics.Constants.eps0 *. s.E.eps_r_co /. s.E.xco in
  check_close ~tol:1e-12 "control-oxide plate x area = cfc"
    t.F.caps.Gnrflash_device.Capacitance.cfc (c_co *. t.F.area);
  check_close ~tol:1e-12 "control oxide is Al2O3" 9.0 s.E.eps_r_co;
  check_close ~tol:0. "tunnel oxide is SiO2" 3.9 s.E.eps_r_to

let test_degenerate_grid () =
  let bad = { stack with E.nodes_per_layer = 1 } in
  check_error "too few nodes" (E.solve bad ~vgs:1. ~vs:0. ~sigma_fg:0.)

let prop_linearity_in_vgs =
  prop "VFG linear in VGS" ~count:25 QCheck2.Gen.(float_range (-20.) 20.)
    (fun vgs ->
       match E.solve stack ~vgs ~vs:0. ~sigma_fg:0. with
       | Error _ -> false
       | Ok s -> abs_float (s.E.vfg -. (vgs /. 3.)) < 1e-6 *. (1. +. abs_float vgs))

let () =
  Alcotest.run "electrostatics"
    [
      ( "electrostatics",
        [
          case "matches divider (no charge)" test_matches_divider_no_charge;
          case "matches divider (charged)" test_matches_divider_with_charge;
          case "fields consistent" test_fields_consistent;
          case "potential profile" test_potential_profile_piecewise_linear;
          case "source bias" test_source_bias;
          case "grid independence" test_resolution_independence;
          case "eq(3) agreement" test_eq3_agreement_with_fgt;
          case "control oxide from the device" test_control_oxide_from_device;
          case "degenerate grid" test_degenerate_grid;
          prop_linearity_in_vgs;
        ] );
    ]
