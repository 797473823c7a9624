module Cap = Gnrflash_device.Capacitance
module U = Gnrflash_units
open Gnrflash_testing.Testing

let make ~cfc ~cfs ~cfb ~cfd =
  Cap.make ~cfc:(U.farad cfc) ~cfs:(U.farad cfs) ~cfb:(U.farad cfb) ~cfd:(U.farad cfd)

let of_gcr ~gcr ~cfc = Cap.of_gcr ~gcr ~cfc:(U.farad cfc)

let net = make ~cfc:6e-18 ~cfs:1e-18 ~cfb:2e-18 ~cfd:1e-18

let test_total_eq2 () =
  (* paper equation (2) *)
  check_close "CT" 1e-17 (Cap.total net)

let test_gcr () = check_close "GCR" 0.6 (Cap.gcr net)

let test_make_validation () =
  Alcotest.check_raises "negative" (Invalid_argument "Capacitance.make: negative component")
    (fun () -> ignore (make ~cfc:(-1e-18) ~cfs:0. ~cfb:0. ~cfd:0.));
  Alcotest.check_raises "zero total" (Invalid_argument "Capacitance.make: zero total")
    (fun () -> ignore (make ~cfc:0. ~cfs:0. ~cfb:0. ~cfd:0.))

let test_of_gcr () =
  let n = of_gcr ~gcr:0.6 ~cfc:6e-18 in
  check_close ~tol:1e-12 "target gcr" 0.6 (Cap.gcr n);
  check_close ~tol:1e-12 "cfc preserved" 6e-18 n.Cap.cfc;
  check_close ~tol:1e-12 "total consistent" 1e-17 (Cap.total n)

let test_of_gcr_full_coupling () =
  let n = of_gcr ~gcr:1.0 ~cfc:5e-18 in
  check_close "gcr 1" 1. (Cap.gcr n)

let test_of_gcr_validation () =
  Alcotest.check_raises "gcr range"
    (Invalid_argument "Capacitance.of_gcr: gcr out of (0, 1]") (fun () ->
      ignore (of_gcr ~gcr:1.2 ~cfc:1e-18))

let test_parallel_plate () =
  (* SiO2 32x32nm at 10 nm -> eps0*3.9*1.024e-15/1e-8 ~ 3.536e-18 F *)
  let c =
    Cap.parallel_plate_q ~eps_r:3.9
      ~area:(U.square_metre (32e-9 *. 32e-9))
      ~thickness:(U.metre 10e-9)
  in
  check_close ~tol:1e-3 "paper-scale CFC" 3.536e-18 (U.to_float c)

let test_quantum_capacitance_series () =
  (* Cq in series with CFC lowers the coupling; Cq -> inf recovers it *)
  let n = Cap.with_quantum_capacitance net ~cq:6e-18 in
  check_close ~tol:1e-12 "series halves equal caps" 3e-18 n.Cap.cfc;
  check_true "gcr drops" (Cap.gcr n < Cap.gcr net);
  let n_inf = Cap.with_quantum_capacitance net ~cq:1e-12 in
  check_close ~tol:1e-4 "large Cq no effect" (Cap.gcr net) (Cap.gcr n_inf)

let prop_of_gcr_roundtrip =
  prop "of_gcr produces the requested ratio"
    QCheck2.Gen.(float_range 0.05 1.0)
    (fun g ->
       let n = of_gcr ~gcr:g ~cfc:4e-18 in
       abs_float (Cap.gcr n -. g) < 1e-12)

let prop_series_never_raises_gcr =
  prop "quantum capacitance only lowers GCR"
    QCheck2.Gen.(float_range 1e-19 1e-15)
    (fun cq ->
       let n = Cap.with_quantum_capacitance net ~cq in
       Cap.gcr n <= Cap.gcr net +. 1e-15)

let () =
  Alcotest.run "capacitance"
    [
      ( "capacitance",
        [
          case "equation (2) total" test_total_eq2;
          case "GCR" test_gcr;
          case "make validation" test_make_validation;
          case "of_gcr synthesis" test_of_gcr;
          case "of_gcr full coupling" test_of_gcr_full_coupling;
          case "of_gcr validation" test_of_gcr_validation;
          case "parallel plate" test_parallel_plate;
          case "quantum capacitance series" test_quantum_capacitance_series;
          prop_of_gcr_roundtrip;
          prop_series_never_raises_gcr;
        ] );
    ]
