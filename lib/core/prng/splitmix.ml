(* splitmix64 finalizer over (seed, index), truncated to OCaml's
   non-negative int range. Int64 arithmetic keeps the 64-bit wraparound the
   constants were designed for. The two rounds are written out straight:
   a local [mix] function would box every Int64 it is passed and returns,
   while let-bound Int64s in one body stay unboxed, so a call allocates
   nothing. *)
let hash ~seed ~index =
  let open Int64 in
  let golden = 0x9E3779B97F4A7C15L in
  (* round 1: position [seed] in the stream *)
  let z = add (of_int seed) golden in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  (* round 2: split by [index] *)
  let z = add z (mul (of_int index) golden) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  to_int (shift_right_logical z 2)
