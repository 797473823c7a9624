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
