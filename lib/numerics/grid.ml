let linspace a b n =
  if n < 2 then invalid_arg "Grid.linspace: n < 2";
  let h = (b -. a) /. float_of_int (n - 1) in
  Array.init n (fun i -> if i = n - 1 then b else a +. (float_of_int i *. h))

let logspace e0 e1 n =
  if n < 2 then invalid_arg "Grid.logspace: n < 2";
  Array.map (fun e -> 10. ** e) (linspace e0 e1 n)

let geomspace a b n =
  if n < 2 then invalid_arg "Grid.geomspace: n < 2";
  if a <= 0. || b <= 0. then invalid_arg "Grid.geomspace: non-positive endpoint";
  logspace (log10 a) (log10 b) n
