(* Converged once the spread of vertex values is within [tol] of the best
   value's magnitude; otherwise stop after [max_iter] iterations. *)
let tol = 1e-10
let max_iter = 2000

let nelder_mead ?(scale = 0.1) f x0 =
  let n = Array.length x0 in
  if n = 0 then invalid_arg "Optimize.nelder_mead: empty point";
  (* simplex of n+1 vertices *)
  let vertex i =
    if i = 0 then Array.copy x0
    else begin
      let v = Array.copy x0 in
      let j = i - 1 in
      let step = if Float.equal v.(j) 0. then scale else scale *. abs_float v.(j) in
      v.(j) <- v.(j) +. step;
      v
    end
  in
  let simplex = Array.init (n + 1) vertex in
  let values = Array.map f simplex in
  let order () =
    let idx = Array.init (n + 1) (fun i -> i) in
    Array.sort (fun i j -> compare values.(i) values.(j)) idx;
    let s = Array.map (fun i -> simplex.(i)) idx in
    let v = Array.map (fun i -> values.(i)) idx in
    Array.blit s 0 simplex 0 (n + 1);
    Array.blit v 0 values 0 (n + 1)
  in
  let centroid () =
    let c = Array.make n 0. in
    for i = 0 to n - 1 do
      (* exclude worst vertex (last after ordering) *)
      for j = 0 to n - 1 do
        c.(j) <- c.(j) +. (simplex.(i).(j) /. float_of_int n)
      done
    done;
    c
  in
  let combine a wa b wb = Array.init n (fun j -> (wa *. a.(j)) +. (wb *. b.(j))) in
  let iter = ref 0 in
  let converged () =
    abs_float (values.(n) -. values.(0)) <= tol *. (1. +. abs_float values.(0))
  in
  order ();
  while !iter < max_iter && not (converged ()) do
    incr iter;
    let c = centroid () in
    let worst = simplex.(n) in
    let refl = combine c 2. worst (-1.) in
    let f_refl = f refl in
    if f_refl < values.(0) then begin
      (* expansion *)
      let exp_pt = combine c 3. worst (-2.) in
      let f_exp = f exp_pt in
      if f_exp < f_refl then begin simplex.(n) <- exp_pt; values.(n) <- f_exp end
      else begin simplex.(n) <- refl; values.(n) <- f_refl end
    end
    else if f_refl < values.(n - 1) then begin
      simplex.(n) <- refl;
      values.(n) <- f_refl
    end
    else begin
      (* contraction *)
      let contr = combine c 0.5 worst 0.5 in
      let f_contr = f contr in
      if f_contr < values.(n) then begin
        simplex.(n) <- contr;
        values.(n) <- f_contr
      end else begin
        (* shrink towards best *)
        for i = 1 to n do
          simplex.(i) <- combine simplex.(0) 0.5 simplex.(i) 0.5;
          values.(i) <- f simplex.(i)
        done
      end
    end;
    order ()
  done;
  (Array.copy simplex.(0), values.(0))
