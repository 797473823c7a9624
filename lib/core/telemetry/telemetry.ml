(* Solver telemetry: named monotonic counters and wall-clock span
   timers for the tunneling -> capacitive-network -> transient pipeline.

   Design constraints:
   - negligible overhead when disabled: every entry point is a single
     [if not !enabled] branch away from a no-op, so instrumentation can stay
     permanently wired into the numeric kernels;
   - scoped attribution: [span] extends the context path and every
     counter recorded inside is keyed under the caller's path
     (e.g. "transient/run/ode/rhs_eval"), so nested solves attribute work to
     the figure or experiment that asked for it;
   - no dependencies beyond the stdlib + unix (for the wall clock), so the
     numerics layer can depend on this module without cycles.

   Domain-safety: every domain records into its own domain-local sink
   (Domain.DLS), so the hot path stays lock-free. The Sweep pool's worker
   domains call [flush_local] once per task, after draining, merging their
   sink into a mutex-protected global accumulator; counters and span calls add,
   span times add (total work across domains). Accessors ([counter],
   [snapshot], ...) see the merge of the global accumulator and the calling
   domain's local sink, so single-domain callers observe exactly the old
   semantics. *)

type span_stat = {
  calls : int;
  total_s : float;
}

type sink = {
  sink_counters : (string, int ref) Hashtbl.t;
  sink_spans : (string, span_stat ref) Hashtbl.t;
  (* The joined span path, extended on span entry and restored on exit so
     counter increments (the hot operation) never re-join it. "" at top
     level. *)
  mutable context_prefix : string;
}

type snapshot = {
  counters : (string * int) list;
  spans : (string * span_stat) list;
}

let make_sink () =
  {
    sink_counters = Hashtbl.create 64;
    sink_spans = Hashtbl.create 16;
    context_prefix = "";
  }

let enabled = Atomic.make false

(* One sink per domain; the main domain's sink doubles as the primary store
   so the single-domain path never touches the mutex. *)
let sink_key : sink Domain.DLS.key = Domain.DLS.new_key make_sink
let local () = Domain.DLS.get sink_key

(* Merge target for worker-domain sinks, only touched under [merged_mutex]
   by [flush_local] / [reset] and the read-side merge. *)
let merged = make_sink ()
let merged_mutex = Mutex.create ()

let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false

let clear_sink s =
  Hashtbl.reset s.sink_counters;
  Hashtbl.reset s.sink_spans;
  s.context_prefix <- ""

let reset () =
  Mutex.protect merged_mutex (fun () -> clear_sink merged);
  clear_sink (local ())

(* Fold [src] into [dst]: counters and span stats add. *)
let merge_sink ~dst (src : sink) =
  (* counter merge is commutative addition keyed by name; the iteration
     order over [src] cannot change any merged total *)
  Hashtbl.iter
    (fun key r ->
       match Hashtbl.find_opt dst.sink_counters key with
       | Some d -> d := !d + !r
       | None -> Hashtbl.add dst.sink_counters key (ref !r))
    src.sink_counters;
  (* span stats add like counters; order-insensitive *)
  Hashtbl.iter
    (fun key r ->
       match Hashtbl.find_opt dst.sink_spans key with
       | Some d -> d := { calls = !d.calls + !r.calls; total_s = !d.total_s +. !r.total_s }
       | None -> Hashtbl.add dst.sink_spans key (ref !r))
    src.sink_spans

(* Flushes are counted so the bench can assert the pool batches telemetry
   (one flush per participating worker per Sweep call, not per chunk). *)
let flushes = Atomic.make 0
let flush_count () = Atomic.get flushes

let flush_local () =
  Atomic.incr flushes;
  let s = local () in
  Mutex.protect merged_mutex (fun () -> merge_sink ~dst:merged s);
  Hashtbl.reset s.sink_counters;
  Hashtbl.reset s.sink_spans

(* Context propagation for the Sweep pool: a worker domain adopts the
   submitting domain's span path so parallel work is keyed identically to
   the serial equivalent. *)
let context_prefix () = (local ()).context_prefix

let with_context_prefix prefix f =
  let s = local () in
  let saved = s.context_prefix in
  s.context_prefix <- prefix;
  Fun.protect ~finally:(fun () -> s.context_prefix <- saved) f

let path s name = if s.context_prefix = "" then name else s.context_prefix ^ "/" ^ name

let count ?(n = 1) name =
  if Atomic.get enabled && n > 0 then begin
    let s = local () in
    let key = path s name in
    match Hashtbl.find_opt s.sink_counters key with
    | Some r -> r := !r + n
    | None -> Hashtbl.add s.sink_counters key (ref n)
  end

let span name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let s = local () in
    let saved_prefix = s.context_prefix in
    let key = path s name in
    s.context_prefix <- key;
    (* lint: allow L9 — span durations are observability data alongside the
       sweep results, never an input to them *)
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        s.context_prefix <- saved_prefix;
        (* lint: allow L9 — see above: timing telemetry only *)
        let dt = Unix.gettimeofday () -. t0 in
        match Hashtbl.find_opt s.sink_spans key with
        | Some r -> r := { calls = !r.calls + 1; total_s = !r.total_s +. dt }
        | None -> Hashtbl.add s.sink_spans key (ref { calls = 1; total_s = dt }))
      f
  end

(* ---- accessors: local sink merged over the global accumulator ---- *)

let read_both f =
  Mutex.protect merged_mutex (fun () -> f merged (local ()))

let snapshot () : snapshot =
  read_both (fun m l ->
      let view = make_sink () in
      merge_sink ~dst:view m;
      merge_sink ~dst:view l;
      let sorted tbl read =
        Hashtbl.fold (fun k v acc -> (k, read v) :: acc) tbl [] |> List.sort compare
      in
      {
        counters = sorted view.sink_counters ( ! );
        spans = sorted view.sink_spans ( ! );
      })

(* ---- renderers ---- *)

let render_text ({ counters; spans } : snapshot) =
  let b = Buffer.create 512 in
  let section title = Buffer.add_string b (title ^ ":\n") in
  if counters <> [] then begin
    section "counters";
    List.iter (fun (k, v) -> Buffer.add_string b (Printf.sprintf "  %-48s %d\n" k v)) counters
  end;
  if spans <> [] then begin
    section "spans";
    List.iter
      (fun (k, s) ->
         Buffer.add_string b
           (Printf.sprintf "  %-48s %6d calls %12.3f ms\n" k s.calls (s.total_s *. 1e3)))
      spans
  end;
  if Buffer.length b = 0 then Buffer.add_string b "telemetry: no data recorded\n";
  Buffer.contents b

let escape_string s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | '\t' -> Buffer.add_string b "\\t"
       | '\r' -> Buffer.add_string b "\\r"
       | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* %.17g round-trips IEEE doubles exactly; integer values print as
   [%.1f] so they still read as floats. *)
let json_float v =
  if Float.is_integer v && abs_float v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let render_json ({ counters; spans } : snapshot) =
  let b = Buffer.create 512 in
  let entries items emit_v =
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
         if i > 0 then Buffer.add_char b ',';
         Buffer.add_string b (Printf.sprintf "\"%s\":" (escape_string k));
         emit_v v)
      items;
    Buffer.add_char b '}'
  in
  Buffer.add_string b "{\"counters\":";
  entries counters (fun v -> Buffer.add_string b (string_of_int v));
  Buffer.add_string b ",\"spans\":";
  entries spans (fun s ->
      Buffer.add_string b
        (Printf.sprintf "{\"calls\":%d,\"total_s\":%s}" s.calls (json_float s.total_s)));
  Buffer.add_string b "}";
  Buffer.contents b

module For_testing = struct
  let is_enabled () = Atomic.get enabled

  let counter name =
    let get s = match Hashtbl.find_opt s.sink_counters name with Some r -> !r | None -> 0 in
    read_both (fun m l -> get m + get l)

  (* Sum of every counter whose path is [name] or ends in "/name"; lets callers
     ask for e.g. "ode/rhs_eval" regardless of which span recorded it. *)
  let counter_total name =
    let suffix = "/" ^ name in
    let total s =
      Hashtbl.fold
        (fun key r acc ->
           if key = name || String.ends_with ~suffix key then acc + !r else acc)
        s.sink_counters 0
    in
    read_both (fun m l -> total m + total l)

  let span_stat name =
    read_both (fun m l ->
        match Hashtbl.find_opt m.sink_spans name, Hashtbl.find_opt l.sink_spans name with
        | None, None -> None
        | Some r, None | None, Some r -> Some !r
        | Some a, Some b ->
          Some { calls = !a.calls + !b.calls; total_s = !a.total_s +. !b.total_s })
end
