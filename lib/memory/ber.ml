module Sp = Gnrflash_numerics.Special

let raw_cell_error_rate ~sigma_dvt ~margin =
  if sigma_dvt <= 0. || margin <= 0. then
    invalid_arg "Ber.raw_cell_error_rate: non-positive input";
  0.5 *. Sp.erfc (margin /. (sigma_dvt *. sqrt 2.))

let mlc_raw_ber ?(config = Mlc.default_mlc) ~sigma_dvt () =
  let n = Mlc.levels config in
  let total = ref 0. in
  for level = 0 to n - 1 do
    let margin = Mlc.read_margin config ~level in
    let references = if level = 0 || level = n - 1 then 1. else 2. in
    (* each reference crossing flips exactly one Gray-coded bit *)
    total := !total +. (references *. raw_cell_error_rate ~sigma_dvt ~margin)
  done;
  (* average error per stored bit: n levels, `bits` bits per cell *)
  !total /. float_of_int (n * config.Mlc.bits)

(* log of the binomial tail P(X >= 2) for small p: dominated by the
   two-error term C(n,2) p^2; we add the exact leading terms in log space
   to stay meaningful down to 1e-300. *)
let codeword_failure_probability ~raw_ber ~codeword_bits =
  if raw_ber <= 0. then 0.
  else if raw_ber >= 1. then 1.
  else begin
    let n = float_of_int codeword_bits in
    (* P(>=2) = 1 - (1-p)^n - n p (1-p)^{n-1}, evaluated stably *)
    let log1mp = log1p (-.raw_ber) in
    let p0 = exp (n *. log1mp) in
    let p1 = exp (log n +. log raw_ber +. ((n -. 1.) *. log1mp)) in
    let tail = 1. -. p0 -. p1 in
    if tail > 1e-12 then tail
    else begin
      (* cancellation regime: use the two-error leading term *)
      let log_c2 = log (n *. (n -. 1.) /. 2.) in
      exp (log_c2 +. (2. *. log raw_ber) +. ((n -. 2.) *. log1mp))
    end
  end

let page_failure_rate ~raw_ber ~codeword_bits ~codewords_per_page =
  if codeword_bits < 3 || codewords_per_page < 1 then
    invalid_arg "Ber.page_failure_rate: bad code geometry";
  let cw = codeword_failure_probability ~raw_ber ~codeword_bits in
  if cw <= 0. then 0.
  else if cw >= 1. then 1.
  else begin
    let m = float_of_int codewords_per_page in
    (* 1 - (1 - cw)^m, stable for tiny cw *)
    -.expm1 (m *. log1p (-.cw))
  end

type analysis = {
  sigma_dvt : float;
  raw_ber : float;
  codeword_failure : float;
  page_failure : float;
  acceptable : bool;
}

(* A 4 kB page of 64-data-bit SEC-DED words, acceptable below a page
   failure rate of 1e-12. *)
let codeword_data_bits = 64
let page_failure_target = 1e-12

let analyze ?(config = Mlc.default_mlc) ~sigma_dvt () =
  let raw_ber = mlc_raw_ber ~config ~sigma_dvt () in
  let codeword_bits = codeword_data_bits + Ecc.overhead codeword_data_bits in
  (* 4 kB page of user data *)
  let codewords_per_page = 4096 * 8 / codeword_data_bits in
  let codeword_failure = codeword_failure_probability ~raw_ber ~codeword_bits in
  let page_failure = page_failure_rate ~raw_ber ~codeword_bits ~codewords_per_page in
  {
    sigma_dvt;
    raw_ber;
    codeword_failure;
    page_failure;
    acceptable = page_failure < page_failure_target;
  }

let max_tolerable_sigma ?(config = Mlc.default_mlc) () =
  let fails sigma =
    (analyze ~config ~sigma_dvt:sigma ()).page_failure > page_failure_target
  in
  let lo = ref 1e-3 and hi = ref 2. in
  if fails !lo then !lo
  else begin
    for _ = 1 to 60 do
      let mid = 0.5 *. (!lo +. !hi) in
      if fails mid then hi := mid else lo := mid
    done;
    !lo
  end
