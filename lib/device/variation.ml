module Stats = Gnrflash_numerics.Stats
module Sweep = Gnrflash_parallel.Sweep
module Err = Gnrflash_resilience.Solver_error
module Tel = Gnrflash_telemetry.Telemetry

type spread = {
  sigma_xto : float;
  sigma_phi : float;
  sigma_gcr : float;
}

let default_spread = { sigma_xto = 0.1e-9; sigma_phi = 0.05; sigma_gcr = 0.01 }

type sample = {
  xto : float;
  phi_b_ev : float;
  gcr : float;
  program_time : float;
  dvt_fixed_pulse : float;
  solve_failed : bool;
  failure : Err.t option;
}

let gaussian state =
  (* Box-Muller *)
  let u1 = Random.State.float state 1. in
  let u2 = Random.State.float state 1. in
  sqrt (-2. *. log (max u1 1e-300)) *. cos (2. *. Float.pi *. u2)

let perturbed_device ~base ~spread state =
  let base_fn = base.Fgt.tunnel_fn in
  let xto = max 1e-9 (base.Fgt.xto +. (spread.sigma_xto *. gaussian state)) in
  let phi =
    max 1. (base_fn.Gnrflash_quantum.Fn.phi_b_ev +. (spread.sigma_phi *. gaussian state))
  in
  let gcr =
    min 0.95 (max 0.05 (Fgt.gcr base +. (spread.sigma_gcr *. gaussian state)))
  in
  let fn =
    Gnrflash_quantum.Fn.coefficients ~phi_b_ev:phi
      ~m_ox_rel:base_fn.Gnrflash_quantum.Fn.m_ox_rel
  in
  (* only the channel <-> FG tunnel interface is perturbed; the control-gate
     barrier is a different physical interface and keeps its base
     coefficients *)
  let t = Fgt.with_xto (Fgt.with_gcr base gcr) xto in
  ({ t with Fgt.tunnel_fn = fn }, xto, phi, gcr)

(* [Ok None] (threshold not reached within the horizon) is a legitimately
   slow device, reported as [infinity]; only solver [Error]s count as failed
   solves, so they can be excluded from the statistics rather than poisoning
   them. *)
let evaluate device =
  let program_time, prog_failure =
    match Transient.time_to_threshold_shift device ~vgs:15. ~dvt:2. ~max_time:1. with
    | Ok (Some t) -> (t, None)
    | Ok None -> (infinity, None)
    | Error e -> (infinity, Some e)
  in
  let dvt_fixed_pulse, pulse_failure =
    match Transient.pulse device ~vgs:15. ~duration:100e-9 with
    | Ok r -> (r.Transient.dvt_final, None)
    | Error e -> (nan, Some e)
  in
  let failure =
    match prog_failure with Some e -> Some e | None -> pulse_failure
  in
  (program_time, dvt_fixed_pulse, failure)

let perturbed ?(spread = default_spread) ~seed ~index ~base () =
  let state = Random.State.make [| Sweep.splitmix ~seed ~index |] in
  let t, _, _, _ = perturbed_device ~base ~spread state in
  t

let sample_devices ?(spread = default_spread) ?(seed = 2014) ?jobs ~base ~n () =
  (* lint: allow L1 — n < 1 is a caller programming bug on a pure sampling
     helper, not a solver data condition; Invalid_argument is the contract *)
  if n < 1 then invalid_arg "Variation.sample_devices: n < 1";
  (* each sample seeds its own PRNG from splitmix(seed, index), so the draw
     depends only on (seed, index) - never on chunking or job count - and
     the ensemble is identical for any [jobs] *)
  Sweep.init ?jobs n (fun index ->
      let state = Random.State.make [| Sweep.splitmix ~seed ~index |] in
      let device, xto, phi_b_ev, gcr = perturbed_device ~base ~spread state in
      let program_time, dvt_fixed_pulse, failure = evaluate device in
      { xto; phi_b_ev; gcr; program_time; dvt_fixed_pulse;
        solve_failed = Option.is_some failure; failure })

type summary = {
  n : int;
  n_failed : int;
  t_prog_median : float;
  t_prog_p95 : float;
  t_prog_spread : float;
  dvt_mean : float;
  dvt_sigma : float;
  failed_by_class : (string * int) list;
}

(* Statistics run over finite samples only, so one failed or saturated solve
   widens [n_failed] instead of driving a percentile or mean to inf/nan. *)
let summarize samples =
  let finite_of field =
    Array.of_list
      (List.filter_map
         (fun s ->
            let v = field s in
            if Float.is_finite v && not s.solve_failed then Some v else None)
         (Array.to_list samples))
  in
  let times = finite_of (fun s -> s.program_time) in
  if Array.length times = 0 then
    Error "Variation.summarize: no successful samples"
  else begin
  let dvts = finite_of (fun s -> s.dvt_fixed_pulse) in
  let n_failed =
    Array.fold_left (fun acc s -> if s.solve_failed then acc + 1 else acc) 0 samples
  in
  (* typed failure causes, bucketed by error class (sorted for stable output) *)
  let failed_by_class =
    let tbl = Hashtbl.create 8 in
    Array.iter
      (fun s ->
         match s.failure with
         | None -> ()
         | Some e ->
           let k = Err.label e in
           Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
      samples;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Ok
    {
      n = Array.length samples;
      n_failed;
      t_prog_median = Stats.median times;
      t_prog_p95 = Stats.percentile 95. times;
      t_prog_spread = Stats.percentile 95. times /. Stats.percentile 5. times;
      dvt_mean = Stats.mean dvts;
      dvt_sigma = Stats.std dvts;
      failed_by_class;
    }
  end

let sensitivity_xto base =
  let delta = 0.05e-9 in
  let time xto =
    let t = Fgt.with_xto base xto in
    match Transient.time_to_threshold_shift t ~vgs:15. ~dvt:2. ~max_time:10. with
    | Ok (Some time) -> time
    | Ok None -> nan
    | Error e ->
      Tel.count ("variation/sensitivity_fallback/" ^ Err.label e);
      nan
  in
  let t_plus = time (base.Fgt.xto +. delta) in
  let t_minus = time (base.Fgt.xto -. delta) in
  (log10 t_plus -. log10 t_minus) /. (2. *. delta *. 1e9)
