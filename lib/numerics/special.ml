(* erfc by the rational Chebyshev fit (Numerical Recipes), |error| < 1.2e-7. *)
let erfc x =
  let z = abs_float x in
  let t = 1. /. (1. +. (0.5 *. z)) in
  let poly =
    -1.26551223
    +. (t *. (1.00002368
    +. (t *. (0.37409196
    +. (t *. (0.09678418
    +. (t *. (-0.18628806
    +. (t *. (0.27886807
    +. (t *. (-1.13520398
    +. (t *. (1.48851587
    +. (t *. (-0.82215223
    +. (t *. 0.17087277)))))))))))))))))
  in
  let ans = t *. exp ((-.z *. z) +. poly) in
  if x >= 0. then ans else 2. -. ans

(* ---------- Airy functions ---------- *)

let ai0 = 0.3550280538878172392600631860041831763980
let aip0 = -0.2588194037928067984051835601892039634793
(* Bi(0) = sqrt 3 * Ai(0), Bi'(0) = sqrt 3 * |Ai'(0)| *)

(* Maclaurin series: Ai = c1 f - c2 g, Bi = sqrt3 (c1 f + c2 g), where
   f'' = x f, f(0)=1, f'(0)=0 and g'' = x g, g(0)=0, g'(0)=1. *)
let airy_series x =
  let c1 = ai0 and c2 = -.aip0 in
  let x3 = x *. x *. x in
  (* f and f' *)
  let f = ref 1. and fp = ref 0. in
  let term = ref 1. in
  let k = ref 0 in
  let continue = ref true in
  while !continue do
    let fk = float_of_int !k in
    let next = !term *. x3 /. (((3. *. fk) +. 2.) *. ((3. *. fk) +. 3.)) in
    incr k;
    term := next;
    f := !f +. next;
    (* d/dx of c_k x^{3k} is 3k c_k x^{3k-1} = next * 3k / x *)
    if not (Float.equal x 0.) then fp := !fp +. (next *. 3. *. float_of_int !k /. x);
    if abs_float next <= 1e-18 *. (abs_float !f +. 1.) || !k > 200 then continue := false
  done;
  (* g and g' *)
  let g = ref x and gp = ref 1. in
  let term = ref x in
  let k = ref 0 in
  let continue = ref true in
  while !continue do
    let fk = float_of_int !k in
    let next = !term *. x3 /. (((3. *. fk) +. 3.) *. ((3. *. fk) +. 4.)) in
    incr k;
    term := next;
    g := !g +. next;
    if not (Float.equal x 0.) then gp := !gp +. (next *. ((3. *. float_of_int !k) +. 1.) /. x);
    if abs_float next <= 1e-18 *. (abs_float !g +. 1.) || !k > 200 then continue := false
  done;
  let sqrt3 = sqrt 3. in
  let ai = (c1 *. !f) -. (c2 *. !g) in
  let aip = (c1 *. !fp) -. (c2 *. !gp) in
  let bi = sqrt3 *. ((c1 *. !f) +. (c2 *. !g)) in
  let bip = sqrt3 *. ((c1 *. !fp) +. (c2 *. !gp)) in
  (ai, aip, bi, bip)

(* Asymptotic coefficients u_k (DLMF 9.7.2) and v_k = (6k+1)/(1-6k) u_k. *)
let asymptotic_uv n =
  let u = Array.make n 0. and v = Array.make n 0. in
  u.(0) <- 1.;
  v.(0) <- 1.;
  for k = 0 to n - 2 do
    let fk = float_of_int k in
    let num = ((3. *. fk) +. 0.5) *. ((3. *. fk) +. 1.5) *. ((3. *. fk) +. 2.5) in
    let den = 54. *. (fk +. 1.) *. (fk +. 0.5) in
    u.(k + 1) <- u.(k) *. num /. den;
    let k1 = float_of_int (k + 1) in
    v.(k + 1) <- u.(k + 1) *. ((6. *. k1) +. 1.) /. (1. -. (6. *. k1))
  done;
  (u, v)

let uv_terms = 10
let u_coef, v_coef = asymptotic_uv uv_terms

(* Sum sum_k sign^k c_k / zeta^k until terms stop shrinking. *)
let asym_sum coefs sign zeta =
  let s = ref 0. and last = ref infinity in
  let zk = ref 1. in
  (try
     for k = 0 to uv_terms - 1 do
       let term = (if k land 1 = 1 then sign else 1.) *. coefs.(k) /. !zk in
       if abs_float term > !last then raise Exit;
       s := !s +. term;
       last := abs_float term;
       zk := !zk *. zeta
     done
   with Exit -> ());
  !s

let airy_asym_pos x =
  let zeta = 2. /. 3. *. (x ** 1.5) in
  let x14 = x ** 0.25 in
  let sp = sqrt Float.pi in
  let ai = exp (-.zeta) /. (2. *. sp *. x14) *. asym_sum u_coef (-1.) zeta in
  let aip = -.x14 *. exp (-.zeta) /. (2. *. sp) *. asym_sum v_coef (-1.) zeta in
  let bi = exp zeta /. (sp *. x14) *. asym_sum u_coef 1. zeta in
  let bip = x14 *. exp zeta /. sp *. asym_sum v_coef 1. zeta in
  (ai, aip, bi, bip)

(* Oscillatory region x < 0 (DLMF 9.7.9-9.7.12), with z = -x. *)
let airy_asym_neg x =
  let z = -.x in
  let zeta = 2. /. 3. *. (z ** 1.5) in
  let z14 = z ** 0.25 in
  let sp = sqrt Float.pi in
  let phase = zeta -. (Float.pi /. 4.) in
  let c = cos phase and s = sin phase in
  (* even/odd sub-sums of u and v with alternating signs *)
  let sub coefs parity =
    let acc = ref 0. and zk = ref (if parity = 0 then 1. else zeta) in
    let last = ref infinity in
    (try
       let k = ref parity in
       let j = ref 0 in
       while !k < uv_terms do
         let term = (if !j land 1 = 1 then -1. else 1.) *. coefs.(!k) /. !zk in
         if abs_float term > !last then raise Exit;
         acc := !acc +. term;
         last := abs_float term;
         zk := !zk *. zeta *. zeta;
         k := !k + 2;
         incr j
       done
     with Exit -> ());
    !acc
  in
  let pu = sub u_coef 0 and qu = sub u_coef 1 in
  let pv = sub v_coef 0 and qv = sub v_coef 1 in
  let ai = ((c *. pu) +. (s *. qu)) /. (sp *. z14) in
  let bi = ((-.s *. pu) +. (c *. qu)) /. (sp *. z14) in
  let aip = z14 /. sp *. ((s *. pv) -. (c *. qv)) in
  let bip = z14 /. sp *. ((c *. pv) +. (s *. qv)) in
  (ai, aip, bi, bip)

let series_cutoff = 5.5

let airy_all x =
  if x > series_cutoff then airy_asym_pos x
  else if x < -.series_cutoff then airy_asym_neg x
  else airy_series x
