module Tel = Gnrflash_telemetry.Telemetry
module Budget = Gnrflash_resilience.Budget

let adaptive_simpson ?(tol = 1e-10) f a b =
  let f x = Tel.count "quad/fn_eval"; Budget.note_evals 1; f x in
  let simpson3 fa fm fb a b = (b -. a) /. 6. *. (fa +. (4. *. fm) +. fb) in
  let rec go a fa b fb m fm whole tol depth =
    Tel.count "quad/adaptive_interval";
    (* Quadrature has no result channel; an exhausted budget surfaces as a
       Solver_failure exception, converted back to Error by the typed
       entry points above this in the stack. *)
    Budget.check_exn ~solver:"Quadrature.adaptive_simpson" ();
    let lm = 0.5 *. (a +. m) and rm = 0.5 *. (m +. b) in
    let flm = f lm and frm = f rm in
    let left = simpson3 fa flm fm a m in
    let right = simpson3 fm frm fb m b in
    let delta = left +. right -. whole in
    if depth >= 40 || abs_float delta <= 15. *. tol then
      left +. right +. (delta /. 15.)
    else
      go a fa m fm lm flm left (tol /. 2.) (depth + 1)
      +. go m fm b fb rm frm right (tol /. 2.) (depth + 1)
  in
  let fa = f a and fb = f b in
  let m = 0.5 *. (a +. b) in
  let fm = f m in
  go a fa b fb m fm (simpson3 fa fm fb a b) tol 0

(* Legendre polynomial P_n (n >= 1) and its derivative by the three-term
   recurrence. *)
let legendre_pd n x =
  let p0 = ref 1. and p1 = ref x in
  for k = 2 to n do
    let fk = float_of_int k in
    let p2 = (((2. *. fk) -. 1.) *. x *. !p1 -. ((fk -. 1.) *. !p0)) /. fk in
    p0 := !p1;
    p1 := p2
  done;
  let d = float_of_int n *. ((x *. !p1) -. !p0) /. ((x *. x) -. 1.) in
  (!p1, d)

type rule = { nodes : float array; weights : float array }

let gauss_legendre_rule n =
  if n < 1 then invalid_arg "Quadrature.gauss_legendre_rule: n < 1";
  let nodes = Array.make n 0. and weights = Array.make n 0. in
  let m = (n + 1) / 2 in
  for i = 0 to m - 1 do
    (* Chebyshev-based initial guess, then Newton on P_n. *)
    let x = ref (cos (Float.pi *. (float_of_int i +. 0.75) /. (float_of_int n +. 0.5))) in
    let continue = ref true in
    let guard = ref 0 in
    while !continue && !guard < 100 do
      incr guard;
      let p, d = legendre_pd n !x in
      let dx = p /. d in
      x := !x -. dx;
      if abs_float dx < 1e-15 then continue := false
    done;
    let _, d = legendre_pd n !x in
    let w = 2. /. ((1. -. (!x *. !x)) *. d *. d) in
    nodes.(i) <- -. !x;
    nodes.(n - 1 - i) <- !x;
    weights.(i) <- w;
    weights.(n - 1 - i) <- w
  done;
  if n mod 2 = 1 then nodes.(n / 2) <- 0.;
  { nodes; weights }

let gauss_legendre { nodes; weights } f a b =
  let order = Array.length nodes in
  Tel.count ~n:order "quad/fn_eval";
  Budget.note_evals order;
  let half = 0.5 *. (b -. a) and mid = 0.5 *. (a +. b) in
  let sum = ref 0. in
  for i = 0 to order - 1 do
    sum := !sum +. (weights.(i) *. f (mid +. (half *. nodes.(i))))
  done;
  !sum *. half

module For_testing = struct
  let simpson f a b ~n =
    if n < 1 then invalid_arg "Quadrature.simpson: n < 1";
    let f x = Tel.count "quad/fn_eval"; Budget.note_evals 1; f x in
    let n = if n mod 2 = 0 then n else n + 1 in
    let h = (b -. a) /. float_of_int n in
    let sum = ref (f a +. f b) in
    for i = 1 to n - 1 do
      let w = if i mod 2 = 1 then 4. else 2. in
      sum := !sum +. (w *. f (a +. (float_of_int i *. h)))
    done;
    !sum *. h /. 3.
end
