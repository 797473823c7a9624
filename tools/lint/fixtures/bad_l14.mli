(* L14 fixture: the exports of a library module, some reached from the
   fixture root (l14_root.ml) and some not. *)

(* lint: allow L14 — fixture: stale, the root reaches it *) (* EXPECT L14 *)
val reached : int -> int
val via_umbrella : int -> int
val unreached : int -> int (* EXPECT L14 *)
val only_from_peer : int -> int (* EXPECT L14 *)

(* lint: allow L14 — fixture: a reasoned allow silences a dead export *)
val kept : int -> int (* EXPECT-SUPPRESSED L14 *)

val internal_only : int -> int
val via_for_testing : int -> int
val behind_alias : int -> int

module For_testing : sig
  val probe : int -> int
  val hidden : int -> int
end
