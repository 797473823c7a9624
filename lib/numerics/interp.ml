type t = {
  xs : float array;
  ys : float array;
  d : float array; (* derivative at each knot *)
}

let validate xs ys =
  let n = Array.length xs in
  if Array.length ys <> n then invalid_arg "Interp: length mismatch";
  if n < 2 then invalid_arg "Interp: need >= 2 points";
  for i = 0 to n - 2 do
    if xs.(i + 1) <= xs.(i) then invalid_arg "Interp: xs not strictly increasing"
  done

(* Fritsch--Carlson monotone slopes. *)
let pchip xs ys =
  validate xs ys;
  let n = Array.length xs in
  (* filled by loops: [Array.init] would box every float its closure returns *)
  let h = Array.make (n - 1) 0. and delta = Array.make (n - 1) 0. in
  for i = 0 to n - 2 do
    h.(i) <- xs.(i + 1) -. xs.(i);
    delta.(i) <- (ys.(i + 1) -. ys.(i)) /. h.(i)
  done;
  let d = Array.make n 0. in
  for i = 1 to n - 2 do
    if delta.(i - 1) *. delta.(i) > 0. then begin
      let w1 = (2. *. h.(i)) +. h.(i - 1) in
      let w2 = h.(i) +. (2. *. h.(i - 1)) in
      d.(i) <- (w1 +. w2) /. ((w1 /. delta.(i - 1)) +. (w2 /. delta.(i)))
    end
  done;
  let endpoint_slope h0 h1 d0 d1 =
    let d = (((2. *. h0) +. h1) *. d0 -. (h0 *. d1)) /. (h0 +. h1) in
    if d *. d0 <= 0. then 0.
    else if d0 *. d1 <= 0. && abs_float d > 3. *. abs_float d0 then 3. *. d0
    else d
  in
  if n = 2 then begin
    d.(0) <- delta.(0);
    d.(1) <- delta.(0)
  end else begin
    d.(0) <- endpoint_slope h.(0) h.(1) delta.(0) delta.(1);
    d.(n - 1) <- endpoint_slope h.(n - 2) h.(n - 3) delta.(n - 2) delta.(n - 3)
  end;
  { xs = Array.copy xs; ys = Array.copy ys; d }

let segment_index (xs : float array) (x : float) =
  (* Largest i with xs.(i) <= x, clamped to [0, n-2]. The annotation keeps
     the search monomorphic: no boxed float and no polymorphic compare per
     probe. *)
  let n = Array.length xs in
  if x <= xs.(0) then 0
  else if x >= xs.(n - 1) then n - 2
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if xs.(mid) <= x then lo := mid else hi := mid
    done;
    !lo
  end

let eval t x =
  let i = segment_index t.xs x in
  let x0 = t.xs.(i) and x1 = t.xs.(i + 1) in
  let y0 = t.ys.(i) and y1 = t.ys.(i + 1) in
  let h = x1 -. x0 in
  let s = (x -. x0) /. h in
  let h00 = ((1. +. (2. *. s)) *. (1. -. s)) *. (1. -. s) in
  let h10 = (s *. (1. -. s)) *. (1. -. s) in
  let h01 = s *. s *. (3. -. (2. *. s)) in
  let h11 = s *. s *. (s -. 1.) in
  (h00 *. y0) +. (h10 *. h *. t.d.(i)) +. (h01 *. y1) +. (h11 *. h *. t.d.(i + 1))
