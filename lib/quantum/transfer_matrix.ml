module C = Gnrflash_physics.Constants
module L = Gnrflash_numerics.Linalg

(* Complex wavevector in a region of potential v for energy e and mass m:
   k = sqrt(2m(e - v))/hbar, purely imaginary inside the barrier. *)
let wavevector ~m ~e ~v =
  let arg = 2. *. m *. (e -. v) in
  if arg >= 0. then
    let re = sqrt arg /. C.hbar in
    Complex.{ re; im = 0. }
  else
    let im = sqrt (-.arg) /. C.hbar in
    Complex.{ re = 0.; im }

(* Interface matrix between regions (k1, m1) -> (k2, m2) for continuity of
   psi and psi'/m, plus propagation across slab widths. *)
let transmission ?(steps = 400) (b : Barrier.t) ~energy =
  if energy <= 0. then 0.
  else begin
    let open Complex in
    let w = Barrier.width b in
    let x0 = fst b.Barrier.nodes.(0) in
    let dx = w /. float_of_int steps in
    let m_out = C.m0 in
    let m_in = b.Barrier.m_eff in
    (* region list: emitter (v=0, m_out), N slabs, collector (v at exit, m_out).
       Collector potential: profile value at the far end (usually 0 or
       negative continuation — we clamp to the final node's value). *)
    let v_slab i =
      let xc = x0 +. ((float_of_int i +. 0.5) *. dx) in
      Barrier.height_at b xc
    in
    (* Consistent with Barrier.height_at, the potential outside the profile
       is 0: both electrodes sit at the emitter band edge (the collector
       screens the oxide field instantly at the interface). *)
    let v_exit = 0. in
    let k_in = wavevector ~m:m_out ~e:energy ~v:0. in
    let k_out = wavevector ~m:m_out ~e:energy ~v:v_exit in
    if Float.equal k_out.re 0. then 0. (* evanescent collector: no propagating exit *)
    else begin
      (* Build total transfer matrix M mapping collector coefficients to
         emitter coefficients, slab by slab. For the interface between
         region a (k_a, m_a) and region b (k_b, m_b) at local coordinate 0:
         M_int = 1/2 [ [1 + r, 1 - r], [1 - r, 1 + r] ], r = (k_b m_a)/(k_a m_b).
         Propagation through slab of width d: diag(e^{-i k d}, e^{i k d}). *)
      let interface (ka : Complex.t) ma (kb : Complex.t) mb =
        if Float.equal ka.re 0. && Float.equal ka.im 0. then None
        else begin
          let r = div (mul kb { re = ma; im = 0. }) (mul ka { re = mb; im = 0. }) in
          let half = { re = 0.5; im = 0. } in
          let plus = mul half (add one r) in
          let minus = mul half (Complex.sub one r) in
          Some { L.a = plus; b = minus; c = minus; d = plus }
        end
      in
      let propagate (k : Complex.t) d =
        (* e^{±ikd}; for imaginary k = iκ this is e^{∓κd} (decaying /
           growing real exponentials). *)
        let ikd = mul { re = 0.; im = 1. } (mul k { re = d; im = 0. }) in
        { L.a = Complex.exp (neg ikd); b = zero; c = zero; d = Complex.exp ikd }
      in
      let result = ref (Some L.cmat2_id) in
      let prev_k = ref k_in and prev_m = ref m_out in
      for i = 0 to steps - 1 do
        match !result with
        | None -> ()
        | Some acc ->
          let v = v_slab i in
          let k = wavevector ~m:m_in ~e:energy ~v in
          (match interface !prev_k !prev_m k m_in with
           | None -> result := None
           | Some mi ->
             let mp = propagate k dx in
             result := Some (L.cmat2_mul (L.cmat2_mul acc mi) mp);
             prev_k := k;
             prev_m := m_in)
      done;
      match !result with
      | None -> 0.
      | Some acc ->
        (match interface !prev_k !prev_m k_out m_out with
         | None -> 0.
         | Some mi ->
           let m_total = L.cmat2_mul acc mi in
           let t_amp = div one m_total.L.a in
           let t2 = norm2 t_amp in
           (* flux normalization: (k_out / m_out) / (k_in / m_out) = k_out/k_in *)
           let flux = k_out.re /. k_in.re in
           let t = t2 *. flux in
           if Float.is_nan t then 0. else min t 1.0)
    end
  end
