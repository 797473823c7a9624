(* Flash-translation-layer simulation: drive a 16-block device with
   sequential, uniform and zipf workloads; compare write amplification,
   garbage-collection pressure and wear-leveling flatness.

   Run with: dune exec examples/ftl_simulation.exe *)

module F = Gnrflash_memory.Ftl
module W = Gnrflash_memory.Workload

let run_workload name pattern =
  let ftl = F.create F.default_config in
  let capacity = F.logical_capacity ftl in
  let ops =
    W.generate ~seed:2014 pattern ~pages:capacity ~strings:1 ~ops:20_000
      ~read_fraction:0.
  in
  match F.run_trace ftl ops with
  | Error e -> Printf.printf "%-12s FAILED: %s\n" name (F.error_to_string e)
  | Ok () ->
    let s = F.stats ftl in
    Printf.printf "%-12s WA=%.3f  gc=%-5d erases=%-5d wear=[%d..%d] spread=%.0f\n"
      name s.F.write_amplification s.F.gc_runs s.F.erases s.F.min_erase_count
      s.F.max_erase_count (F.wear_spread ftl)

let () =
  let cfg = F.default_config in
  Printf.printf
    "FTL: %d blocks x %d pages, %d logical pages exposed, GC threshold %d\n\n"
    cfg.F.blocks cfg.F.pages_per_block
    (F.logical_capacity (F.create cfg))
    cfg.F.gc_threshold;
  Printf.printf "20000 page writes per workload:\n";
  run_workload "sequential" W.Sequential;
  run_workload "uniform" W.Uniform;
  run_workload "zipf(0.9)" (W.Zipf 0.9);
  run_workload "zipf(1.3)" (W.Zipf 1.3);
  print_newline ();
  print_endline
    "Skewed (zipf) traffic concentrates invalidations, so GC finds emptier \
     victims and write amplification drops; uniform traffic is the worst case."
