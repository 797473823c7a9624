(* L14 fixture: an umbrella re-export shim, like lib/core/telemetry.ml. A
   call through it must resolve to the Bad_l14 definition. *)
include Bad_l14
