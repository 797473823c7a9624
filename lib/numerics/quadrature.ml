module Tel = Gnrflash_telemetry.Telemetry
module Budget = Gnrflash_resilience.Budget

let trapezoid f a b ~n =
  if n < 1 then invalid_arg "Quadrature.trapezoid: n < 1";
  let f x = Tel.count "quad/fn_eval"; Budget.note_evals 1; f x in
  let h = (b -. a) /. float_of_int n in
  let sum = ref (0.5 *. (f a +. f b)) in
  for i = 1 to n - 1 do
    sum := !sum +. f (a +. (float_of_int i *. h))
  done;
  !sum *. h

let trapezoid_samples xs ys =
  let n = Array.length xs in
  if Array.length ys <> n then invalid_arg "Quadrature.trapezoid_samples: length mismatch";
  if n < 2 then invalid_arg "Quadrature.trapezoid_samples: need >= 2 points";
  let sum = ref 0. in
  for i = 0 to n - 2 do
    sum := !sum +. (0.5 *. (ys.(i) +. ys.(i + 1)) *. (xs.(i + 1) -. xs.(i)))
  done;
  !sum

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

(* Legendre polynomial value and derivative by the three-term recurrence. *)
let legendre_pd n x =
  let p0 = ref 1. and p1 = ref x in
  if n = 0 then (1., 0.)
  else begin
    for k = 2 to n do
      let fk = float_of_int k in
      let p2 = (((2. *. fk) -. 1.) *. x *. !p1 -. ((fk -. 1.) *. !p0)) /. fk in
      p0 := !p1;
      p1 := p2
    done;
    let d = float_of_int n *. ((x *. !p1) -. !p0) /. ((x *. x) -. 1.) in
    (!p1, d)
  end

(* Domain-local so parallel sweeps never race on the table; each domain
   pays the (tiny) node build once per order instead of taking a lock on
   every quadrature call. *)
let node_cache_key : (int, float array * float array) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let gauss_legendre_nodes n =
  if n < 1 then invalid_arg "Quadrature.gauss_legendre_nodes: n < 1";
  let node_cache = Domain.DLS.get node_cache_key in
  match Hashtbl.find_opt node_cache n with
  | Some nw -> Tel.count "quad/gauss_nodes_hit"; nw
  | None ->
    Tel.count "quad/gauss_nodes_built";
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
    let nw = (nodes, weights) in
    Hashtbl.replace node_cache n nw;
    nw

let gauss_legendre ?(order = 16) f a b =
  Tel.count ~n:order "quad/fn_eval";
  Budget.note_evals order;
  let nodes, weights = gauss_legendre_nodes order in
  let half = 0.5 *. (b -. a) and mid = 0.5 *. (a +. b) in
  let sum = ref 0. in
  for i = 0 to order - 1 do
    sum := !sum +. (weights.(i) *. f (mid +. (half *. nodes.(i))))
  done;
  !sum *. half

let integrate_to_inf ?(tol = 1e-12) ?(decades = 6.) f a =
  let start = max (abs_float a) 1. in
  let total = ref 0. in
  let lo = ref a in
  let hi = ref (a +. start) in
  let k = ref 0 in
  let panels = int_of_float (ceil (decades /. 0.30103)) + 4 in
  let continue = ref true in
  while !continue && !k < panels do
    incr k;
    Tel.count "quad/inf_panel";
    Budget.check_exn ~solver:"Quadrature.integrate_to_inf" ();
    let piece = gauss_legendre ~order:24 f !lo !hi in
    total := !total +. piece;
    if abs_float piece <= tol *. (abs_float !total +. 1e-300) then continue := false
    else begin
      lo := !hi;
      hi := !lo +. ((!hi -. a) *. 1.0) *. 2.
    end
  done;
  !total

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
