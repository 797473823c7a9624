module R = Gnrflash.Report
open Gnrflash_testing.Testing

let test_fig4_check () =
  let c = R.check_fig4 () in
  check_true ("fig4: " ^ c.R.detail) c.R.passed

let test_fig5_checks () =
  List.iter (fun c -> check_true (c.R.name ^ ": " ^ c.R.detail) c.R.passed) (R.check_fig5 ())

let test_fig6_checks () =
  List.iter (fun c -> check_true (c.R.name ^ ": " ^ c.R.detail) c.R.passed) (R.check_fig6 ())

let test_fig7_checks () =
  List.iter (fun c -> check_true (c.R.name ^ ": " ^ c.R.detail) c.R.passed) (R.check_fig7 ())

let test_fig8_checks () =
  List.iter (fun c -> check_true (c.R.name ^ ": " ^ c.R.detail) c.R.passed) (R.check_fig8 ())

let test_fig9_checks () =
  List.iter (fun c -> check_true (c.R.name ^ ": " ^ c.R.detail) c.R.passed) (R.check_fig9 ())

let test_all_checks_pass () =
  let checks = R.all_checks () in
  check_true "non-trivial count" (List.length checks >= 20);
  List.iter (fun c -> check_true (c.R.name ^ ": " ^ c.R.detail) c.R.passed) checks

let test_render_format () =
  let out =
    R.render
      [
        { R.name = "alpha"; passed = true; detail = "fine" };
        { R.name = "beta"; passed = false; detail = "broken" };
      ]
  in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check_true "pass marker" (contains "[PASS] alpha" out);
  check_true "fail marker" (contains "[FAIL] beta" out);
  check_true "summary" (contains "1/2" out)

let () =
  Alcotest.run "report"
    [
      ( "report",
        [
          case "fig4 shape" test_fig4_check;
          case "fig5 shape" test_fig5_checks;
          case "fig6 shape" test_fig6_checks;
          case "fig7 shape" test_fig7_checks;
          case "fig8 shape" test_fig8_checks;
          case "fig9 shape" test_fig9_checks;
          case "all checks pass" test_all_checks_pass;
          case "render format" test_render_format;
        ] );
    ]
