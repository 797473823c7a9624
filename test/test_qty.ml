(* The typed units layer (Gnrflash_units) must be a zero-cost view: every
   typed primary must be bit-identical to the raw-float shim it replaced,
   across random valid parameter ranges — not merely close. *)

module U = Gnrflash_units
module C = Gnrflash_physics.Constants
module Fn = Gnrflash_quantum.Fn
module Cap = Gnrflash_device.Capacitance
module Fgt = Gnrflash_device.Fgt
open Gnrflash_testing.Testing

let bits = Int64.bits_of_float

let check_bits msg expected actual =
  if bits expected <> bits actual then
    Alcotest.failf "%s: %.17g and %.17g differ bitwise" msg expected actual

(* --- dimension crossings pinned to the SI constants --- *)

let test_elementary_charge_exact () =
  (* the eV<->J crossing hard-codes the 2019 SI elementary charge; it must
     match Constants bit-for-bit or typed barrier heights drift *)
  check_bits "q" C.q (U.to_float (U.ev_to_joule (U.ev 1.)));
  check_bits "ev" C.ev (U.to_float (U.ev_to_joule (U.ev 1.)));
  check_bits "roundtrip 3.2 eV" (3.2 *. C.ev)
    (U.to_float (U.ev_to_joule (U.ev 3.2)))

(* --- operator algebra is plain IEEE arithmetic --- *)

let test_operator_identities () =
  let e = U.(volt 9. /@ metre 5e-9) in
  check_bits "field" (9. /. 5e-9) (U.to_float e);
  check_bits "recover volt" 9. U.(to_float (e *@ metre 5e-9));
  check_bits "charge over farad" (2e-16 /. 1e-17)
    U.(to_float (coulomb 2e-16 //@ farad 1e-17));
  check_bits "area" (32e-9 *. 32e-9)
    U.(to_float (area (metre 32e-9) (metre 32e-9)));
  check_bits "sum" (1.5 +. 0.25) U.(to_float (volt 1.5 +@ volt 0.25));
  check_bits "scale" (0.6 *. 15.) U.(to_float (scale 0.6 (volt 15.)));
  check_true "compare" U.(volt 1. <@ volt 2.);
  check_true "nan incomparable" (not U.(volt nan <=@ volt nan))

let test_areal_crossings () =
  let c = U.f_per_m2 3.45e-3 in
  check_bits "displacement" (3.45e-3 *. 7.)
    (U.to_float (U.areal_displacement c ~v:(U.volt 7.)))

(* --- qcheck: typed primaries vs raw shims, bitwise --- *)

let gen_params =
  QCheck2.Gen.(pair (float_range 1. 6.) (float_range 0.1 1.))

let prop_fn_coefficients =
  prop "Fn.coefficients_q bit-identical" gen_params
    (fun (phi_b_ev, m_ox_rel) ->
      let raw = Fn.coefficients ~phi_b_ev ~m_ox_rel in
      let typed = Fn.coefficients_q ~phi_b:(U.ev phi_b_ev) ~m_ox_rel in
      bits raw.Fn.a = bits (U.to_float (Fn.a_qty typed))
      && bits raw.Fn.b = bits (U.to_float (Fn.b_qty typed)))

let prop_fn_current_density =
  prop "Fn.current_density_q bit-identical"
    QCheck2.Gen.(triple (float_range 1. 6.) (float_range 0.1 1.)
                   (float_range (-2e9) 2e9))
    (fun (phi_b_ev, m_ox_rel, field) ->
      let p = Fn.coefficients ~phi_b_ev ~m_ox_rel in
      bits (Fn.current_density p ~field)
      = bits (U.to_float (Fn.current_density_q p ~field:(U.v_per_m field))))

let gen_caps =
  QCheck2.Gen.(quad (float_range 1e-19 1e-16) (float_range 1e-19 1e-16)
                 (float_range 1e-19 1e-16) (float_range 1e-19 1e-16))

let prop_capacitance =
  prop "Capacitance typed path bit-identical" gen_caps
    (fun (cfc, cfs, cfb, cfd) ->
      let raw = Cap.For_testing.make ~cfc ~cfs ~cfb ~cfd in
      let typed =
        Cap.make_q ~cfc:(U.farad cfc) ~cfs:(U.farad cfs) ~cfb:(U.farad cfb)
          ~cfd:(U.farad cfd)
      in
      bits (Cap.total raw) = bits (U.to_float (Cap.total_q typed))
      && bits (Cap.gcr raw) = bits (Cap.gcr typed))

let gen_bias =
  QCheck2.Gen.(pair (float_range (-20.) 20.) (float_range (-2e-16) 2e-16))

let prop_fgt_potentials =
  prop "Fgt potentials/fields bit-identical" gen_bias (fun (vgs, qfg) ->
      let t = Fgt.paper_default in
      let vq = U.volt vgs and qq = U.coulomb qfg in
      bits (Fgt.vfg t ~vgs ~qfg)
      = bits (U.to_float (Fgt.vfg_q t ~vgs:vq ~qfg:qq))
      && bits (Fgt.tunnel_field t ~vgs ~qfg)
         = bits (U.to_float (Fgt.tunnel_field_q t ~vgs:vq ~qfg:qq))
      && bits (Fgt.For_testing.control_field t ~vgs ~qfg)
         = bits (U.to_float (Fgt.control_field_q t ~vgs:vq ~qfg:qq)))

let prop_fgt_charge_balance =
  prop "Fgt charge-balance RHS bit-identical" gen_bias (fun (vgs, qfg) ->
      let t = Fgt.paper_default in
      let vq = U.volt vgs and qq = U.coulomb qfg in
      bits (Fgt.j_in t ~vgs ~qfg)
      = bits (U.to_float (Fgt.j_in_q t ~vgs:vq ~qfg:qq))
      && bits (Fgt.j_out t ~vgs ~qfg)
         = bits (U.to_float (Fgt.j_out_q t ~vgs:vq ~qfg:qq))
      && bits (Fgt.For_testing.dqfg_dt t ~vgs ~qfg)
         = bits (U.to_float (Fgt.For_testing.dqfg_dt_q t ~vgs:vq ~qfg:qq)))

let prop_fgt_threshold =
  prop "Fgt threshold mapping bit-identical"
    QCheck2.Gen.(float_range (-5.) 5.)
    (fun dvt ->
      let t = Fgt.paper_default in
      let qfg = Fgt.qfg_for_threshold_shift t ~dvt in
      bits qfg
      = bits (U.to_float (Fgt.qfg_for_threshold_shift_q t ~dvt:(U.volt dvt)))
      && bits (Fgt.threshold_shift t ~qfg)
         = bits
             (U.to_float (Fgt.threshold_shift_q t ~qfg:(U.coulomb qfg))))

let prop_fgt_make =
  prop "Fgt.make_q bit-identical device"
    QCheck2.Gen.(quad (float_range 0.1 0.9) (float_range 2e-9 10e-9)
                   (float_range 1e-9 15e-9) (float_range 10e-9 100e-9))
    (fun (gcr, xto, dxco, w) ->
      let xco = xto +. dxco in
      let raw = Fgt.For_testing.make ~gcr ~xto ~xco ~area:(w *. w) () in
      let typed =
        Fgt.make_q ~gcr ~xto:(U.metre xto) ~xco:(U.metre xco)
          ~area:(U.area (U.metre w) (U.metre w)) ()
      in
      bits (Fgt.ct raw) = bits (Fgt.ct typed)
      && bits (Fgt.gcr raw) = bits (Fgt.gcr typed)
      && bits (Fgt.vfg raw ~vgs:12. ~qfg:(-1e-16))
         = bits (Fgt.vfg typed ~vgs:12. ~qfg:(-1e-16)))

let () =
  Alcotest.run "qty"
    [
      ( "qty",
        [
          case "elementary charge exact" test_elementary_charge_exact;
          case "operator identities" test_operator_identities;
          case "areal crossings" test_areal_crossings;
          prop_fn_coefficients;
          prop_fn_current_density;
          prop_capacitance;
          prop_fgt_potentials;
          prop_fgt_charge_balance;
          prop_fgt_threshold;
          prop_fgt_make;
        ] );
    ]
