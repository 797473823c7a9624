(* L14 fixture: the program root of the fixture set (test/test_lint.ml
   lists it in the fixture config's roots). *)

val run : unit -> int
