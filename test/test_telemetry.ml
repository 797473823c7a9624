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

(* [render_json] byte for byte on a hand-built snapshot: names escape
   quote, backslash, newline and other control characters; an integer
   [total_s] keeps a decimal point; an empty section is [{}]. *)
let test_json_golden () =
  let span calls total_s = { T.calls; total_s } in
  Alcotest.(check string) "empty snapshot" {|{"counters":{},"spans":{}}|}
    (T.render_json { T.counters = []; spans = [] });
  Alcotest.(check string) "escapes and number formats"
    {|{"counters":{"ode/rhs_eval":123456,"w\"e\\i\nr\u0001d":1},"spans":{}}|}
    (T.render_json
       { T.counters = [ ("ode/rhs_eval", 123456); ("w\"e\\i\nr\001d", 1) ]; spans = [] });
  Alcotest.(check string) "spans"
    {|{"counters":{},"spans":{"lookup/build":{"calls":3,"total_s":2.0},"t\tab":{"calls":1,"total_s":0.10000000000000001}}}|}
    (T.render_json
       { T.counters = []; spans = [ ("lookup/build", span 3 2.); ("t\tab", span 1 0.1) ] })

(* A span's [total_s] is the one float [render_json] prints: 17
   significant digits (one decimal for an integer below 10^15), which
   read back to the same bits. *)
let prop_total_s_round_trips =
  prop "total_s prints as %.17g and reads back exactly" ~count:500
    QCheck2.Gen.(
      oneof
        [
          float_bound_inclusive 1e4;
          map (fun e -> 10. ** float_of_int e) (int_range (-300) 300);
          map float_of_int (int_range 0 1_000_000);
        ])
    (fun total_s ->
       let json =
         T.render_json { T.counters = []; spans = [ ("s", { T.calls = 1; total_s }) ] }
       in
       let prefix = {|{"counters":{},"spans":{"s":{"calls":1,"total_s":|} in
       let np = String.length prefix in
       String.starts_with ~prefix json
       && String.ends_with ~suffix:"}}}" json
       &&
       let text = String.sub json np (String.length json - np - 3) in
       (if Float.is_integer total_s && total_s < 1e15 then
          text = Printf.sprintf "%.1f" total_s
        else text = Printf.sprintf "%.17g" total_s)
       && Int64.equal (Int64.bits_of_float (float_of_string text)) (Int64.bits_of_float total_s))

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
          case "json golden" test_json_golden;
          case "text render" (with_fresh test_text_render);
          case "reset clears" (with_fresh test_reset_clears);
          prop_counter_equals_sum_of_increments;
          prop_total_s_round_trips;
        ] );
    ]
