(* The typed units layer (Gnrflash_units) must be a zero-cost view: its
   crossings match the SI constants to the bit, and its operators are plain
   IEEE arithmetic, so a formula written over typed quantities returns the
   bits of the same formula over raw floats. *)

module U = Gnrflash_units
module C = Gnrflash_physics.Constants
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

let () =
  Alcotest.run "qty"
    [
      ( "qty",
        [
          case "elementary charge exact" test_elementary_charge_exact;
          case "operator identities" test_operator_identities;
          case "areal crossings" test_areal_crossings;
        ] );
    ]
