(* Pinned outputs for the default seed 2014 and the held-out seed 7919.
   A change to the workload inputs or to the simulated behaviour must
   re-pin these and say why. The serve_mixed pins equal the digests that
   [gnrflash_cli serve --ops 320000 --instances 8 --seed <seed>] prints. *)

let serve_pins =
  [
    ("serve_mixed", 2014, (0x195A6C7D9BE5DCB7, 0x0F92B0F11103F8C8));
    ("serve_mixed", 7919, (0x1E2D51A56EFFE517, 0x36E0CA0AE14F89DB));
    ("serve_read_heavy", 2014, (0x0A11E3D236FF5F14, 0x2BF8308E105D03CB));
    ("serve_read_heavy", 7919, (0x3E8C44E68CB9B0DE, 0x2A3E20D08021611E));
  ]

(* Fleet (trace, state) digests; the parallel tier must reproduce the
   serial fleet, so serve_mixed_jobs2 shares serve_mixed's pins. *)
let serve name seed =
  let name = if name = "serve_mixed_jobs2" then "serve_mixed" else name in
  List.find_map
    (fun (n, s, d) -> if n = name && s = seed then Some d else None)
    serve_pins

let endurance_pins =
  [ (2014, (0x14DD4F80E9719210, 1796228)); (7919, (0x1F9B2F9AFCE54600, 1813898)) ]

(* Ensemble (digest, total cycles survived). *)
let endurance seed = List.assoc_opt seed endurance_pins
