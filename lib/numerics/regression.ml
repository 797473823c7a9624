type fit = {
  slope : float;
  intercept : float;
  r_squared : float;
  slope_stderr : float;
  intercept_stderr : float;
  n : int;
}

let wls ~weights xs ys =
  let n = Array.length xs in
  if Array.length ys <> n || Array.length weights <> n then
    Error "Regression: length mismatch"
  else if n < 2 then Error "Regression: need >= 2 points"
  else begin
    let sw = ref 0. and sx = ref 0. and sy = ref 0. in
    for i = 0 to n - 1 do
      if weights.(i) < 0. then invalid_arg "Regression.wls: negative weight";
      sw := !sw +. weights.(i);
      sx := !sx +. (weights.(i) *. xs.(i));
      sy := !sy +. (weights.(i) *. ys.(i))
    done;
    if !sw <= 0. then Error "Regression: zero total weight"
    else begin
      let xbar = !sx /. !sw and ybar = !sy /. !sw in
      let sxx = ref 0. and sxy = ref 0. and syy = ref 0. in
      for i = 0 to n - 1 do
        let dx = xs.(i) -. xbar and dy = ys.(i) -. ybar in
        sxx := !sxx +. (weights.(i) *. dx *. dx);
        sxy := !sxy +. (weights.(i) *. dx *. dy);
        syy := !syy +. (weights.(i) *. dy *. dy)
      done;
      if Float.equal !sxx 0. then Error "Regression: constant abscissae"
      else begin
        let slope = !sxy /. !sxx in
        let intercept = ybar -. (slope *. xbar) in
        let ss_res = ref 0. in
        for i = 0 to n - 1 do
          let r = ys.(i) -. (intercept +. (slope *. xs.(i))) in
          ss_res := !ss_res +. (weights.(i) *. r *. r)
        done;
        let r_squared = if Float.equal !syy 0. then 1. else 1. -. (!ss_res /. !syy) in
        let dof = float_of_int (n - 2) in
        let var = if n > 2 then !ss_res /. dof else 0. in
        let slope_stderr = sqrt (var /. !sxx) in
        let intercept_stderr = sqrt (var *. ((1. /. !sw) +. (xbar *. xbar /. !sxx))) in
        Ok { slope; intercept; r_squared; slope_stderr; intercept_stderr; n }
      end
    end
  end

let ols xs ys = wls ~weights:(Array.make (Array.length xs) 1.) xs ys
