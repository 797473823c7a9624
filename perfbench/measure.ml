(* Clocks, order statistics and the result record shared by the workloads. *)

(* Monotonic nanoseconds; allocation-free, so it can wrap every host
   command of a traced run without disturbing the minor heap. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, seconds_since t0)

(* Nearest-rank percentile over an ascending array, the rule the [serve]
   CLI uses for its fleet percentiles. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(int_of_float (Float.round (p *. float_of_int (n - 1))))

(* Quantile [q] of one figure over repetitions. *)
let quantile q f reps =
  let a = Array.of_list (List.map f reps) in
  Array.sort compare a;
  percentile a q

let med f reps = quantile 0.5 f reps

(* End-to-end host figures. Contention from other tenants of a shared
   host only ever slows the program, and on a small shared machine its
   level changes from one tenth of a second to the next, by up to 1.7x,
   so a whole repetition (a second or more) rarely runs undisturbed.
   Every unit of a repetition's work (a short run of one service
   instance's commands, one cell, one instance's set-up) repeats exactly
   on every repetition; the
   fastest of a unit's readings is the one the host disturbed least, and
   a host figure sums those fastest readings over the units. *)
let sum_of_fastest f reps =
  let total = ref 0. in
  for j = 0 to Array.length (f (List.hd reps)) - 1 do
    total := !total +. List.fold_left (fun a r -> Float.min a (f r).(j)) infinity reps
  done;
  !total

(* Host seconds of one repetition's work on [jobs] domains: the fastest
   times of its [units], shared over the domains at the median parallel
   efficiency (each domain's busy time over domains x wall time; a ratio
   within one repetition, so host slowdowns largely cancel in it). *)
let best_seconds ~jobs ~units ~busy ~wall reps =
  let efficiency r =
    Array.fold_left ( +. ) 0. (busy r) /. (float_of_int jobs *. wall r)
  in
  sum_of_fastest units reps /. (float_of_int jobs *. med efficiency reps)

(* The highest percentile with at least ten samples beyond it: the value
   with exactly ten larger-ranked samples, its percentile, and the sample
   count. Fewer than eleven samples report the maximum at 100%. *)
type tail = { value : float; pct : float; samples : int }

let tail sorted =
  let n = Array.length sorted in
  if n = 0 then { value = 0.; pct = 0.; samples = 0 }
  else if n < 11 then { value = sorted.(n - 1); pct = 100.; samples = n }
  else
    {
      value = sorted.(n - 11);
      pct = 100. *. float_of_int (n - 10) /. float_of_int n;
      samples = n;
    }

(* Runs [rep] back to back until [seconds] have passed, and at least
   [min_reps] times, so every figure is a median over several repetitions
   of the same fixed-size work. Each repetition starts from a compacted
   heap, so none pays for its predecessor's garbage and the peak heap
   does not depend on where a collection happened to fall. *)
let min_reps = 3

let repeat ~seconds rep =
  let t_end = now_ns () + int_of_float (seconds *. 1e9) in
  let rec go acc n =
    Gc.compact ();
    let r = rep () in
    if n + 1 >= min_reps && now_ns () >= t_end then List.rev (r :: acc)
    else go (r :: acc) (n + 1)
  in
  go [] 0

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* Reads of a telemetry snapshot: the sum over every key that is [name]
   or ends in ["/" ^ name], whichever span recorded it. *)
let under name key =
  key = name
  || String.ends_with ~suffix:("/" ^ name) key

let snap_count (s : Gnrflash_telemetry.Telemetry.snapshot) name =
  List.fold_left
    (fun a (k, v) -> if under name k then a + v else a)
    0 s.Gnrflash_telemetry.Telemetry.counters

let snap_span_s (s : Gnrflash_telemetry.Telemetry.snapshot) name =
  List.fold_left
    (fun a (k, st) ->
       if under name k then a +. st.Gnrflash_telemetry.Telemetry.total_s else a)
    0. s.Gnrflash_telemetry.Telemetry.spans

(* Layers below the cell store, from the library's own counters and
   spans; [cell_pulses] is the base of the memo hit ratio: every pulse a
   cell received, whether replayed from a memo or solved. Span times are
   inclusive of nested spans. *)
let physics_layers ~cell_pulses snap ~span_s =
  let count name = float_of_int (snap_count snap name) in
  let hits = count "surrogate/hit" and fallbacks = count "surrogate/fallback" in
  [
    ( "cell_store.memo_hit_ratio",
      1. -. (count "program_erase/pulse" /. Float.max 1. cell_pulses) );
    ("program_erase.pulses", count "program_erase/pulse");
    ("program_erase.host_s", span_s "program_erase/pulse");
    ("program_erase.replay_hits", count "program_erase/pulse_replay");
    ("transient.warm_start_hits", count "transient/warm_start_hit");
    ("pulse_surrogate.hits", hits);
    ("pulse_surrogate.fallbacks", fallbacks);
    ("pulse_surrogate.builds", count "surrogate/build");
    ("pulse_surrogate.build_s", span_s "surrogate/build");
    ("pulse_surrogate.hit_ratio", hits /. Float.max 1. (hits +. fallbacks));
    ("transient.solves", count "transient/solve");
    ("transient.host_s", span_s "transient/run");
    ("ode.rhs_evals", count "ode/rhs_eval");
  ]

(* One discarded warm-up repetition (heap growth, lazy set-up such as the
   domain pool), then untraced repetitions for the whole run or, on a
   traced run, pairs of an untraced repetition and a traced one with the
   library's telemetry on. The two halves of a pair run back to back, so
   both see the same host conditions. Returns the untraced and the traced
   repetitions; on a traced run the lists pair up index by index. *)
let with_trace ~trace ~seconds rep =
  ignore (rep ~traced:false);
  if not trace then (repeat ~seconds (fun () -> rep ~traced:false), [])
  else begin
    let module Tel = Gnrflash_telemetry.Telemetry in
    let traced () =
      Gc.compact ();
      Tel.reset ();
      Tel.enable ();
      Fun.protect ~finally:Tel.disable (fun () -> rep ~traced:true)
    in
    List.split
      (repeat ~seconds (fun () ->
           let u = rep ~traced:false in
           (u, traced ())))
  end

(* Untraced over traced throughput, the median over the pairs of
   [with_trace]. *)
let overhead_ratio rate ~untraced ~traced =
  med (fun (u, t) -> rate u /. rate t) (List.combine untraced traced)

(* What one workload run reports: outcome counts, named output checks,
   the metrics by name, and free-form lines for the human-readable part
   of the output. *)
type result = {
  attempted : int;
  failed : int;
  checks : (string * bool) list;  (* all must hold *)
  metrics : (string * float) list;  (* units live in Metrics *)
  notes : (string * string) list;
}
