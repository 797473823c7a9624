let check_len x y name =
  if Array.length x <> Array.length y then invalid_arg ("Linalg." ^ name ^ ": length mismatch")

let dot x y =
  check_len x y "dot";
  let s = ref 0. in
  Array.iteri (fun i xi -> s := !s +. (xi *. y.(i))) x;
  !s

let norm2 x = sqrt (dot x x)

let scale a x = Array.map (fun xi -> a *. xi) x

let add x y =
  check_len x y "add";
  Array.mapi (fun i xi -> xi +. y.(i)) x

let sub x y =
  check_len x y "sub";
  Array.mapi (fun i xi -> xi -. y.(i)) x

let mat_vec a x =
  Array.map (fun row -> dot row x) a

let mat_mul a b =
  let n = Array.length a in
  let p = Array.length b in
  if p = 0 then invalid_arg "Linalg.mat_mul: empty";
  let m = Array.length b.(0) in
  Array.init n (fun i ->
      if Array.length a.(i) <> p then invalid_arg "Linalg.mat_mul: dimension mismatch";
      Array.init m (fun j ->
          let s = ref 0. in
          for k = 0 to p - 1 do
            s := !s +. (a.(i).(k) *. b.(k).(j))
          done;
          !s))

let transpose a =
  let n = Array.length a in
  if n = 0 then [||]
  else
    let m = Array.length a.(0) in
    Array.init m (fun j -> Array.init n (fun i -> a.(i).(j)))

let identity n = Array.init n (fun i -> Array.init n (fun j -> if i = j then 1. else 0.))

let solve_tridiag ~sub ~diag ~sup rhs =
  let n = Array.length diag in
  if Array.length sub <> n || Array.length sup <> n || Array.length rhs <> n then
    Error "Linalg.solve_tridiag: bad dimensions"
  else if n = 0 then Error "Linalg.solve_tridiag: empty"
  else begin
    let c' = Array.make n 0. and d' = Array.make n 0. in
    if abs_float diag.(0) < 1e-300 then Error "Linalg.solve_tridiag: zero pivot"
    else begin
      c'.(0) <- sup.(0) /. diag.(0);
      d'.(0) <- rhs.(0) /. diag.(0);
      let singular = ref false in
      for i = 1 to n - 1 do
        let denom = diag.(i) -. (sub.(i) *. c'.(i - 1)) in
        if abs_float denom < 1e-300 then singular := true
        else begin
          c'.(i) <- sup.(i) /. denom;
          d'.(i) <- (rhs.(i) -. (sub.(i) *. d'.(i - 1))) /. denom
        end
      done;
      if !singular then Error "Linalg.solve_tridiag: zero pivot"
      else begin
        let x = Array.make n 0. in
        x.(n - 1) <- d'.(n - 1);
        for i = n - 2 downto 0 do
          x.(i) <- d'.(i) -. (c'.(i) *. x.(i + 1))
        done;
        Ok x
      end
    end
  end

type cmat2 = {
  a : Complex.t; b : Complex.t;
  c : Complex.t; d : Complex.t;
}

let cmat2_mul m1 m2 =
  let open Complex in
  {
    a = add (mul m1.a m2.a) (mul m1.b m2.c);
    b = add (mul m1.a m2.b) (mul m1.b m2.d);
    c = add (mul m1.c m2.a) (mul m1.d m2.c);
    d = add (mul m1.c m2.b) (mul m1.d m2.d);
  }

let cmat2_id = Complex.{ a = one; b = zero; c = zero; d = one }
