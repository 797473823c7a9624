(* L14 fixture: a library module no root reaches. Its export fires, and so
   does the [Bad_l14] export that only it calls. *)

val dead_caller : int -> int (* EXPECT L14 *)
