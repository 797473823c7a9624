let non_empty name xs =
  if Array.length xs = 0 then invalid_arg ("Stats." ^ name ^ ": empty sample")

let mean xs =
  non_empty "mean" xs;
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let variance xs =
  non_empty "variance" xs;
  let n = Array.length xs in
  if n = 1 then 0.
  else begin
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs in
    ss /. float_of_int (n - 1)
  end

let std xs = sqrt (variance xs)

let min_max xs =
  non_empty "min_max" xs;
  Array.fold_left
    (fun (lo, hi) x -> (min lo x, max hi x))
    (xs.(0), xs.(0)) xs

let sorted xs =
  let ys = Array.copy xs in
  Array.sort compare ys;
  ys

let median xs =
  non_empty "median" xs;
  let ys = sorted xs in
  let n = Array.length ys in
  if n mod 2 = 1 then ys.(n / 2)
  else 0.5 *. (ys.((n / 2) - 1) +. ys.(n / 2))

let percentile p xs =
  non_empty "percentile" xs;
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of [0, 100]";
  let ys = sorted xs in
  let n = Array.length ys in
  if n = 1 then ys.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    ys.(lo) +. (frac *. (ys.(hi) -. ys.(lo)))
  end

type histogram = {
  edges : float array;
  counts : int array;
}

let histogram ~bins xs =
  non_empty "histogram" xs;
  if bins < 1 then invalid_arg "Stats.histogram: bins < 1";
  let lo, hi = min_max xs in
  let hi = if Float.equal hi lo then lo +. 1. else hi in
  let w = (hi -. lo) /. float_of_int bins in
  let edges = Array.init (bins + 1) (fun i -> lo +. (float_of_int i *. w)) in
  let counts = Array.make bins 0 in
  Array.iter
    (fun x ->
       let i = int_of_float ((x -. lo) /. w) in
       let i = if i >= bins then bins - 1 else if i < 0 then 0 else i in
       counts.(i) <- counts.(i) + 1)
    xs;
  { edges; counts }
