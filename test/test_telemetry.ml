module T = Gnrflash_telemetry.Telemetry
open Gnrflash_testing.Testing

(* Each case owns the global telemetry state for its duration. *)
let fresh () =
  T.reset ();
  T.enable ()

let teardown () =
  T.disable ();
  T.reset ()

let with_fresh f () =
  fresh ();
  Fun.protect ~finally:teardown f

let test_counter_basics () =
  T.count "a";
  T.count "a";
  T.count ~n:5 "a";
  T.count "b";
  Alcotest.(check int) "a accumulates" 7 (T.For_testing.counter "a");
  Alcotest.(check int) "b independent" 1 (T.For_testing.counter "b");
  Alcotest.(check int) "absent is zero" 0 (T.For_testing.counter "missing")

let test_counters_monotonic () =
  let prev = ref 0 in
  for _ = 1 to 100 do
    T.count "mono";
    let v = T.For_testing.counter "mono" in
    check_true "counter strictly increases" (v > !prev);
    prev := v
  done;
  (* non-positive increments are ignored rather than allowed to decrease *)
  T.count ~n:0 "mono";
  T.count ~n:(-3) "mono";
  Alcotest.(check int) "never decreases" 100 (T.For_testing.counter "mono")

let test_spans_nest () =
  let r =
    T.span "outer" (fun () ->
        T.count "top";
        T.span "inner" (fun () ->
            T.count "deep";
            42))
  in
  Alcotest.(check int) "span returns value" 42 r;
  Alcotest.(check int) "outer-scoped counter" 1 (T.For_testing.counter "outer/top");
  Alcotest.(check int) "nested counter fully scoped" 1 (T.For_testing.counter "outer/inner/deep");
  check_true "outer span recorded" (T.For_testing.span_stat "outer" <> None);
  check_true "nested span keyed by path" (T.For_testing.span_stat "outer/inner" <> None);
  (* context popped: counting after the spans is unscoped again *)
  T.count "after";
  Alcotest.(check int) "context restored" 1 (T.For_testing.counter "after")

let test_span_pops_context_on_exception () =
  (try T.span "boom" (fun () -> failwith "inner failure") with Failure _ -> ());
  T.count "after_raise";
  Alcotest.(check int) "context restored after raise" 1 (T.For_testing.counter "after_raise");
  match T.For_testing.span_stat "boom" with
  | None -> Alcotest.fail "span must be recorded even when f raises"
  | Some s -> Alcotest.(check int) "one call" 1 s.T.calls

let test_counter_total_suffix_sum () =
  T.count ~n:2 "ode/rhs_eval";
  T.span "transient/run" (fun () -> T.count ~n:3 "ode/rhs_eval");
  T.span "other" (fun () -> T.count ~n:4 "ode/rhs_eval");
  Alcotest.(check int) "exact path" 2 (T.For_testing.counter "ode/rhs_eval");
  Alcotest.(check int) "suffix sum over scopes" 9 (T.For_testing.counter_total "ode/rhs_eval");
  (* a counter that merely shares a substring must not match *)
  T.count "xode/rhs_eval_extra";
  Alcotest.(check int) "no substring matches" 9 (T.For_testing.counter_total "ode/rhs_eval")

let test_disabled_is_noop () =
  T.disable ();
  T.count "never";
  let r = T.span "never_span" (fun () -> T.count "inside"; 7) in
  Alcotest.(check int) "span still transparent" 7 r;
  let snap = T.snapshot () in
  check_true "no counters" (snap.T.counters = []);
  check_true "no spans" (snap.T.spans = [])

let test_snapshot_sorted () =
  T.count "zz";
  T.count "aa";
  T.count "mm";
  let snap = T.snapshot () in
  let names = List.map fst snap.T.counters in
  Alcotest.(check (list string)) "sorted" [ "aa"; "mm"; "zz" ] names

let test_json_round_trip () =
  T.count ~n:17 "ode/step_accepted";
  T.span "transient/run" (fun () ->
      T.count ~n:123456 "ode/rhs_eval";
      ignore (T.span "lookup/build" (fun () -> ())));
  T.count "weird \"name\"\n";
  let snap = T.snapshot () in
  let json = T.render_json snap in
  match T.For_testing.snapshot_of_json json with
  | Error e -> Alcotest.fail e
  | Ok back ->
    Alcotest.(check (list (pair string int))) "counters round-trip"
      snap.T.counters back.T.counters;
    List.iter2
      (fun (k1, (s1 : T.span_stat)) (k2, s2) ->
         Alcotest.(check string) "span name" k1 k2;
         Alcotest.(check int) "span calls" s1.T.calls s2.T.calls;
         check_abs ~tol:0. "span total_s exact" s1.T.total_s s2.T.total_s)
      snap.T.spans back.T.spans

let test_json_rejects_garbage () =
  check_error "not json" (T.For_testing.snapshot_of_json "hello");
  check_error "truncated" (T.For_testing.snapshot_of_json "{\"counters\":{");
  check_error "missing fields" (T.For_testing.snapshot_of_json "{\"counters\":{}}")

let contains ~needle haystack =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_text_render () =
  T.count ~n:3 "a/b";
  ignore (T.span "s" (fun () -> ()));
  let text = T.render_text (T.snapshot ()) in
  List.iter
    (fun needle ->
       check_true (Printf.sprintf "text mentions %s" needle) (contains ~needle text))
    [ "a/b"; "3"; "s"; "calls" ]

let test_reset_clears () =
  T.count "x";
  ignore (T.span "y" (fun () -> T.count "z"));
  T.reset ();
  let snap = T.snapshot () in
  check_true "reset clears everything"
    (snap.T.counters = [] && snap.T.spans = [])

let prop_counter_equals_sum_of_increments =
  prop "counter equals the sum of its positive increments" ~count:100
    QCheck2.Gen.(small_list (int_range (-5) 20))
    (fun ns ->
       fresh ();
       List.iter (fun n -> T.count ~n "p") ns;
       let expect = List.fold_left (fun acc n -> if n > 0 then acc + n else acc) 0 ns in
       let got = T.For_testing.counter "p" in
       teardown ();
       got = expect)

let () =
  Alcotest.run "telemetry"
    [
      ( "telemetry",
        [
          case "counter basics" (with_fresh test_counter_basics);
          case "counters monotonic" (with_fresh test_counters_monotonic);
          case "spans nest" (with_fresh test_spans_nest);
          case "span pops context on exception"
            (with_fresh test_span_pops_context_on_exception);
          case "counter_total suffix sum" (with_fresh test_counter_total_suffix_sum);
          case "disabled is a no-op" (with_fresh test_disabled_is_noop);
          case "snapshot sorted" (with_fresh test_snapshot_sorted);
          case "json round-trip" (with_fresh test_json_round_trip);
          case "json rejects garbage" (with_fresh test_json_rejects_garbage);
          case "text render" (with_fresh test_text_render);
          case "reset clears" (with_fresh test_reset_clears);
          prop_counter_equals_sum_of_increments;
        ] );
    ]
