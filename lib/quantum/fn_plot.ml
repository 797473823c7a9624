module Reg = Gnrflash_numerics.Regression

type extraction = {
  a : float;
  b : float;
  r_squared : float;
}

let points_of_data ~fields ~currents =
  let n = Array.length fields in
  if Array.length currents <> n then invalid_arg "Fn_plot.points_of_data: length mismatch";
  let acc = ref [] in
  for i = n - 1 downto 0 do
    if fields.(i) > 0. && currents.(i) > 0. then
      acc := (1. /. fields.(i), log (currents.(i) /. (fields.(i) *. fields.(i)))) :: !acc
  done;
  Array.of_list !acc

let extract ~fields ~currents =
  let pts = points_of_data ~fields ~currents in
  if Array.length pts < 2 then Error "Fn_plot.extract: fewer than two valid points"
  else begin
    let xs = Array.map fst pts and ys = Array.map snd pts in
    match Reg.ols xs ys with
    | Error e -> Error e
    | Ok fit ->
      Ok { a = exp fit.Reg.intercept; b = -.fit.Reg.slope; r_squared = fit.Reg.r_squared }
  end
