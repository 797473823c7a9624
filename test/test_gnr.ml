module G = Gnrflash_materials.Gnr
open Gnrflash_testing.Testing

let test_make_validation () =
  Alcotest.check_raises "n too small" (Invalid_argument "Gnr.make: n < 2") (fun () ->
      ignore (G.make G.Armchair 1))

(* channels open at a Fermi level [ef_ev] above midgap: zero means the
   level still sits inside the gap *)
let channels edge n ef_ev = G.conducting_channels (G.make edge n) ~ef_ev

let test_three_family_gaps () =
  (* the quasi-metallic family 3p+2 has a (near-)zero tight-binding gap, so
     a channel opens at 0.1 eV; the 3p and 3p+1 gaps exceed 0.3 eV *)
  check_true "N=11 (3p+2) quasi-metallic" (channels G.Armchair 11 0.1 >= 1);
  Alcotest.(check int) "N=12 (3p) semiconducting" 0 (channels G.Armchair 12 0.15);
  Alcotest.(check int) "N=13 (3p+1) semiconducting" 0 (channels G.Armchair 13 0.15)

let test_gap_decreases_with_width () =
  (* subband edges at k = 0 sit at 0.37 eV (N=12), 0.19 eV (N=24) and
     0.10 eV (N=48): the wider ribbon opens a channel first *)
  check_true "wider ribbon, smaller gap"
    (channels G.Armchair 24 0.25 >= 1 && channels G.Armchair 12 0.25 = 0);
  check_true "even wider"
    (channels G.Armchair 48 0.15 >= 1 && channels G.Armchair 24 0.15 = 0)

let test_zigzag_metallic () =
  Alcotest.(check int) "edge band at EF = 0" 1 (channels G.Zigzag 10 0.)

let test_conducting_channels () =
  let r = G.make G.Armchair 12 in
  let low = G.conducting_channels r ~ef_ev:0.01 in
  let high = G.conducting_channels r ~ef_ev:3.5 in
  check_true "few channels at low EF" (low <= 1);
  check_true "more channels at high EF" (high > low);
  (* zigzag always has the edge band *)
  check_true "zigzag edge channel"
    (G.conducting_channels (G.make G.Zigzag 8) ~ef_ev:0.01 >= 1)

let prop_family_32_quasi_metallic =
  prop "3p+2 armchair gap below other families" QCheck2.Gen.(int_range 2 15)
    (fun p ->
       (* at 10 meV a 3p+2 ribbon conducts while its 3p+3 neighbour is
          still gapped *)
       let n = (3 * p) + 2 in
       channels G.Armchair n 0.01 >= 1 && channels G.Armchair (n + 1) 0.01 = 0)

let () =
  Alcotest.run "gnr"
    [
      ( "gnr",
        [
          case "constructor validation" test_make_validation;
          case "three-family gaps" test_three_family_gaps;
          case "gap vs width" test_gap_decreases_with_width;
          case "zigzag metallic" test_zigzag_metallic;
          case "conducting channels" test_conducting_channels;
          prop_family_32_quasi_metallic;
        ] );
    ]
