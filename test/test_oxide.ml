module O = Gnrflash_materials.Oxide
module Cap = Gnrflash_device.Capacitance
module U = Gnrflash_units
open Gnrflash_testing.Testing

let test_sio2_parameters () =
  check_close "eps_r" 3.9 O.sio2.O.eps_r;
  check_close "affinity" 0.9 O.sio2.O.electron_affinity;
  check_close "m_ox" 0.42 O.sio2.O.m_ox

(* a unit-area SiO2 film of the given thickness, through the parallel-plate
   formula the device builds its control-gate capacitance with *)
let sio2_film thickness =
  U.to_float
    (Cap.parallel_plate_q ~eps_r:O.sio2.O.eps_r ~area:(U.square_metre 1.)
       ~thickness:(U.metre thickness))

let test_capacitance_per_area () =
  (* SiO2 at 10 nm: ~3.45e-3 F/m^2 = 345 nF/cm^2 *)
  check_close ~tol:1e-3 "10nm SiO2" 3.4531e-3 (sio2_film 10e-9)

let test_capacitance_invalid () =
  Alcotest.check_raises "zero thickness"
    (Invalid_argument "Capacitance.parallel_plate: thickness <= 0") (fun () ->
      ignore (sio2_film 0.))

let prop_capacitance_inverse_thickness =
  prop "capacitance halves when thickness doubles"
    QCheck2.Gen.(float_range 1e-9 50e-9)
    (fun t -> abs_float ((sio2_film t /. sio2_film (2. *. t)) -. 2.) < 1e-9)

let () =
  Alcotest.run "oxide"
    [
      ( "oxide",
        [
          case "SiO2 parameters" test_sio2_parameters;
          case "parallel plate" test_capacitance_per_area;
          case "invalid thickness" test_capacitance_invalid;
          prop_capacitance_inverse_thickness;
        ] );
    ]
