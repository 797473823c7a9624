(* L3 fixture: numerics entry points with and without a telemetry span. *)

module Roots = Gnrflash_numerics.Roots
module Tel = Gnrflash_telemetry.Telemetry

let f x = (x *. x) -. 2.

let unattributed () = Roots.brent f 0. 2. (* EXPECT L3 *)

let attributed () = Tel.span "lint_fixture/ok" @@ fun () -> Roots.brent f 0. 2.

let allowed () =
  (* lint: allow L3 — fixture: attribution handled by the caller *)
  Roots.brent f 0. 2. (* EXPECT-SUPPRESSED L3 *)
