type kind =
  | Linear
  | Log10

type t = {
  kind : kind;
  lo : float;
  hi : float;
}

let make kind ~lo ~hi =
  if hi < lo then invalid_arg "Scale.make: hi < lo";
  match kind with
  | Linear ->
    if Float.equal hi lo then
      let pad = if Float.equal lo 0. then 1. else abs_float lo *. 0.1 in
      { kind; lo = lo -. pad; hi = hi +. pad }
    else { kind; lo; hi }
  | Log10 ->
    if hi <= 0. then invalid_arg "Scale.make: log scale needs positive data";
    let lo = if lo <= 0. then hi /. 1e12 else lo in
    if Float.equal hi lo then { kind; lo = lo /. 10.; hi = hi *. 10. } else { kind; lo; hi }

let kind t = t.kind
let bounds t = (t.lo, t.hi)

let project t v =
  let u =
    match t.kind with
    | Linear -> (v -. t.lo) /. (t.hi -. t.lo)
    | Log10 ->
      if v <= 0. then 0.
      else (log10 v -. log10 t.lo) /. (log10 t.hi -. log10 t.lo)
  in
  if u < 0. then 0. else if u > 1. then 1. else u

let nice_step raw =
  let mag = 10. ** floor (log10 raw) in
  let norm = raw /. mag in
  let nice = if norm <= 1. then 1. else if norm <= 2. then 2. else if norm <= 5. then 5. else 10. in
  nice *. mag

(* About six ticks per axis. *)
let ticks t =
  match t.kind with
  | Linear ->
    let span = t.hi -. t.lo in
    let step = nice_step (span /. 6.) in
    let first = ceil (t.lo /. step) *. step in
    let rec go acc v =
      if v > t.hi +. (step /. 2.) then List.rev acc else go (v :: acc) (v +. step)
    in
    Array.of_list (go [] first)
  | Log10 ->
    let d0 = floor (log10 t.lo) and d1 = ceil (log10 t.hi) in
    let decades = int_of_float (d1 -. d0) in
    let stride = max 1 (decades / 6) in
    let rec go acc d =
      if d > d1 +. 0.5 then List.rev acc
      else go ((10. ** d) :: acc) (d +. float_of_int stride)
    in
    Array.of_list
      (List.filter (fun v -> v >= t.lo /. 1.001 && v <= t.hi *. 1.001) (go [] d0))

let tick_label t v =
  match t.kind with
  | Log10 -> Printf.sprintf "1e%.0f" (log10 v)
  | Linear ->
    if Float.equal v 0. then "0"
    else if abs_float v >= 1e4 || abs_float v < 1e-3 then Printf.sprintf "%.1e" v
    else if Float.is_integer v then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.3g" v
