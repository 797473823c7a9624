(* L6 fixture: adaptive WKB evaluation inside quadrature integrands. The
   quadrature calls are span-wrapped so only L6 is exercised here (L3 has its
   own fixture). *)

module Quad = Gnrflash_numerics.Quadrature
module Wkb = Gnrflash_quantum.Wkb
module Barrier = Gnrflash_quantum.Barrier
module Tel = Gnrflash_telemetry.Telemetry

let barrier = Barrier.triangular ~phi_b:3.2 ~field:1e9 ~m_eff:3.8e-31
let rule = Quad.gauss_legendre_rule 16

let adaptive_transmission_per_node () =
  Tel.span "lint_fixture/l6" @@ fun () ->
  Quad.gauss_legendre rule (fun e -> Wkb.transmission barrier ~energy:e) 0. 0.5 (* EXPECT L6 *)

let adaptive_action_per_node () =
  Tel.span "lint_fixture/l6" @@ fun () ->
  Quad.adaptive_simpson (fun e -> Wkb.action_integral barrier ~energy:e) 0. 0.5 (* EXPECT L6 *)

let allowed () =
  Tel.span "lint_fixture/l6" @@ fun () ->
  (* lint: allow L6 — fixture: legacy comparison path, cache parity checked in tests *)
  Quad.gauss_legendre rule (fun e -> Wkb.transmission barrier ~energy:e) 0. 0.5 (* EXPECT-SUPPRESSED L6 *)

(* the blessed shape: one cache build outside, closed-form lookups per node *)
let cached () =
  Tel.span "lint_fixture/l6" @@ fun () ->
  let cache = Wkb.Cache.make barrier in
  Quad.gauss_legendre rule (fun e -> Wkb.Cache.transmission cache ~energy:e) 0. 0.5

(* adaptive WKB outside any integrand is fine *)
let outside_ok () = Wkb.transmission barrier ~energy:0.1
