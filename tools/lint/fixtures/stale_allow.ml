(* Unused-allow fixture: an allow comment that covers no finding of a rule
   it names is an unsuppressed finding of that rule, on the comment's
   closing line. *)

(* lint: allow L2 — fixture: nothing here compares floats *) (* EXPECT L2 *)
let exact (a : float) (b : float) = Float.equal a b

let half_used (a : float) (b : float) =
  (* lint: allow L2, L9 — fixture: only the L2 id is used *) (* EXPECT L9 *)
  a = b (* EXPECT-SUPPRESSED L2 *)

(* lint: allow L1 — fixture: a stale allow that spans
   two lines is reported on its closing line *) (* EXPECT L1 *)
let quiet x = x + 1
