(* Every metric the benchmark prints, with its unit, in print order. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("pe_cycles_per_s", "1/s");
    ("minor_words_per_op", "words");
    ("peak_heap_mb", "MB");
    ("model_time_s", "sim_s");
  ]

let service_classes =
  List.concat_map
    (fun c ->
       [
         (Printf.sprintf "service.%s.calls" c, "count");
         (Printf.sprintf "service.%s.host_p50_us" c, "us");
         (Printf.sprintf "service.%s.host_tail_us" c, "us");
       ])
    [ "read"; "write"; "suspend_write"; "trim" ]

let model_classes =
  List.concat_map
    (fun c ->
       [
         (Printf.sprintf "model_%s_p50_s" c, "sim_s");
         (Printf.sprintf "model_%s_tail_s" c, "sim_s");
         (Printf.sprintf "model_%s_tail_pct" c, "%");
         (Printf.sprintf "model_%s_samples" c, "count");
       ])
    [ "read"; "write" ]

let per_layer =
  [ ("workload.gen_s", "s"); ("workload.gen_words_per_op", "words") ]
  @ service_classes
  @ [
    ("service.report_s", "s");
    ("ftl.host_s", "s");
    ("ftl.gc_runs", "count");
    ("ftl.erases", "count");
    ("ftl.write_amplification", "ratio");
    ("ecc.encode_ns", "ns");
    ("ecc.decode_ns", "ns");
    ("ecc.distinct_codewords", "count");
    ("command_fsm.bus_cycles_per_op", "count");
    ("command_fsm.programs", "count");
    ("command_fsm.sector_erases", "count");
    ("command_fsm.suspends", "count");
    ("command_fsm.verify_timeouts", "count");
    ("cell_store.pulses_per_op", "count");
    ("cell_store.memo_hit_ratio", "ratio");
    ("program_erase.pulses", "count");
    ("program_erase.host_s", "s");
    ("program_erase.replay_hits", "count");
    ("transient.warm_start_hits", "count");
    ("pulse_surrogate.hits", "count");
    ("pulse_surrogate.fallbacks", "count");
    ("pulse_surrogate.builds", "count");
    ("pulse_surrogate.build_s", "s");
    ("pulse_surrogate.hit_ratio", "ratio");
    ("transient.solves", "count");
    ("transient.host_s", "s");
    ("ode.rhs_evals", "count");
    ("sweep.instance_busy_s_max", "s");
    ("sweep.instance_busy_s_min", "s");
    ("sweep.parallel_efficiency", "ratio");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.major_words", "words");
    ("tracing.overhead_ratio", "ratio");
  ]
  @ model_classes
