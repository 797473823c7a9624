module W = Gnrflash_materials.Workfunction
module O = Gnrflash_materials.Oxide
open Gnrflash_testing.Testing

(* A high-k fixture: hafnia's electron affinity (Robertson 2004) sits
   1.5 eV above SiO2's, so every electrode sees a lower barrier into it. *)
let hfo2 =
  {
    O.eps_r = 22.0;
    electron_affinity = 2.4;
    m_ox = 0.17;
    breakdown_field = 4.0e8;
  }

let test_reference_values () =
  check_close "n+ poly" 4.05 (W.work_function W.N_poly_si);
  check_close "graphene" 4.56 (W.work_function W.Graphene);
  check_close "Al" 4.28 (W.work_function W.Aluminium);
  check_close "custom" 5.1 (W.work_function (W.Custom ("x", 5.1)))

let test_mlgnr_monotone_to_graphite () =
  let w1 = W.work_function (W.Mlgnr 1) in
  let w3 = W.work_function (W.Mlgnr 3) in
  let w20 = W.work_function (W.Mlgnr 20) in
  check_close "monolayer = graphene" (W.work_function W.Graphene) w1;
  check_true "increases with layers" (w3 > w1);
  check_close ~tol:1e-3 "approaches graphite" 4.6 w20

let test_barrier_height () =
  check_close "paper barrier" 3.2
    (W.barrier_height (W.Custom ("paper", 4.1)) O.sio2);
  check_close "graphene/SiO2" 3.66 (W.barrier_height W.Graphene O.sio2);
  check_true "HfO2 barrier smaller"
    (W.barrier_height W.Graphene hfo2 < W.barrier_height W.Graphene O.sio2)

let test_si_sio2_reference () =
  (* the textbook Si/SiO2 electron barrier is 3.15-3.2 eV *)
  check_in "textbook" ~lo:3.15 ~hi:3.2 (W.barrier_height W.N_poly_si O.sio2)

let prop_barrier_decreases_with_affinity =
  prop "higher-affinity oxide gives lower barrier" ~count:20
    QCheck2.Gen.(float_range 4.0 5.2)
    (fun wf ->
       let e = W.Custom ("probe", wf) in
       W.barrier_height e hfo2 < W.barrier_height e O.sio2)

let () =
  Alcotest.run "workfunction"
    [
      ( "workfunction",
        [
          case "reference values" test_reference_values;
          case "MLGNR approach to graphite" test_mlgnr_monotone_to_graphite;
          case "barrier heights" test_barrier_height;
          case "Si/SiO2 textbook value" test_si_sio2_reference;
          prop_barrier_decreases_with_affinity;
        ] );
    ]
