(* The repository benchmark. One run measures one workload for a fixed
   number of seconds and prints, as its last stdout line, one JSON object:
   {"correct", "attempted", "failed", "metrics"}. Untraced runs
   (--trace 0) report the end-to-end metrics; traced runs (--trace 1)
   report the per-layer ledger, timed from this directory around calls
   into each layer plus the counters the library's telemetry already
   has. Exits 1 when an output check fails.

   Usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                   [--commit ID] *)

(* serve_mixed_jobs2 is not in BENCHMARK.json: on a shared two-vCPU host
   its throughput spreads past the bound (see README.md). *)
let workloads =
  let jobs2 = min 2 (Domain.recommended_domain_count ()) in
  [
    ("serve_mixed", `Serve { Serve.mix = Serve.Mixed; ops = 40_000; jobs = 1 });
    ("serve_read_heavy", `Serve { Serve.mix = Serve.Read_heavy; ops = 150_000; jobs = 1 });
    ("serve_mixed_jobs2", `Serve { Serve.mix = Serve.Mixed; ops = 40_000; jobs = jobs2 });
    ("endurance_ensemble", `Cells 256);
  ]

let json_number v = Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref 2014 and seconds = ref 10.
  and trace = ref 0 and commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " one of the workload names");
      ("--seed", Arg.Set_int seed, " workload seed (default 2014)");
      ("--seconds", Arg.Set_float seconds, " measuring time (default 10)");
      ("--trace", Arg.Set_int trace, " 1: per-layer ledger; 0: end to end");
      ("--commit", Arg.Set_string commit, " source identity to record");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let kind =
    match List.assoc_opt !workload workloads with
    | Some k -> k
    | None ->
      prerr_endline
        ("unknown workload; choose one of: "
        ^ String.concat ", " (List.map fst workloads));
      exit 2
  in
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be > 0 and --trace 0 or 1";
    exit 2
  end;
  let trace = !trace = 1 in
  let r =
    match kind with
    | `Serve spec ->
      Serve.bench spec ~name:!workload ~seed:!seed ~seconds:!seconds ~trace
    | `Cells cells -> Cycling.bench ~cells ~seed:!seed ~seconds:!seconds ~trace
  in
  let names = if trace then Metrics.per_layer else Metrics.end_to_end in
  (* layers a workload never reaches report zero *)
  let value name = Option.value (List.assoc_opt name r.Measure.metrics) ~default:0. in
  let unknown =
    List.filter (fun (n, _) -> not (List.mem_assoc n names)) r.Measure.metrics
  in
  let finite = List.for_all (fun (n, _) -> Float.is_finite (value n)) names in
  let checks =
    r.Measure.checks
    @ [
      ("every metric is finite", finite);
      ("every metric is a known one", unknown = []);
    ]
  in
  let correct = r.Measure.failed = 0 && List.for_all snd checks in
  Printf.printf "# perfbench %s seed=%d seconds=%g trace=%d\n" !workload !seed
    !seconds (Bool.to_int trace);
  Printf.printf "# host nproc=%d ocaml=%s commit=%s\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version !commit;
  List.iter (fun (k, v) -> Printf.printf "# %s: %s\n" k v) r.Measure.notes;
  Printf.printf "# error_rate: %g (%d failed of %d attempted)\n"
    (float_of_int r.Measure.failed /. float_of_int (max 1 r.Measure.attempted))
    r.Measure.failed r.Measure.attempted;
  List.iter
    (fun (name, ok) -> Printf.printf "# check %s: %s\n" (if ok then "ok" else "FAILED") name)
    checks;
  List.iter
    (fun (name, unit) -> Printf.printf "%-34s %16.6g %s\n" name (value name) unit)
    names;
  let metrics =
    List.map
      (fun (name, unit) ->
         let v = value name in
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
           (json_number (if Float.is_finite v then v else 0.))
           unit)
      names
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct r.Measure.attempted r.Measure.failed (String.concat ", " metrics);
  exit (if correct then 0 else 1)
