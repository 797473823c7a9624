type codeword = int array

let check_bit name b = if b <> 0 && b <> 1 then invalid_arg ("Ecc." ^ name ^ ": non-bit value")

(* The least [r >= 2] with [2^r >= k + r + 1]. Toplevel, not a closure
   over [k] inside [parity_bits], so a packed decode allocates nothing. *)
let rec parity_count k r = if 1 lsl r >= k + r + 1 then r else parity_count k (r + 1)

let parity_bits k =
  if k <= 0 then invalid_arg "Ecc.parity_bits: k <= 0";
  parity_count k 2

let is_power_of_two n = n land (n - 1) = 0

(* Hamming layout over positions 1..n where n = k + r: parity bits at
   powers of two, data bits filling the rest in order. *)
let encode data =
  let k = Array.length data in
  if k = 0 then invalid_arg "Ecc.encode: empty data";
  Array.iter (check_bit "encode") data;
  let r = parity_bits k in
  let n = k + r in
  let word = Array.make (n + 1) 0 in
  (* place data bits (1-based positions) *)
  let next = ref 0 in
  for pos = 1 to n do
    if not (is_power_of_two pos) then begin
      word.(pos) <- data.(!next);
      incr next
    end
  done;
  (* compute parity bits: parity at 2^i covers positions with that bit set *)
  for i = 0 to r - 1 do
    let p = 1 lsl i in
    let acc = ref 0 in
    for pos = 1 to n do
      if pos land p <> 0 && pos <> p then acc := !acc lxor word.(pos)
    done;
    word.(p) <- !acc
  done;
  (* overall parity over positions 1..n, appended at the end *)
  let overall = ref 0 in
  for pos = 1 to n do
    overall := !overall lxor word.(pos)
  done;
  (* emitted codeword drops the unused index 0 and appends overall parity *)
  Array.append (Array.sub word 1 n) [| !overall |]

type decode_result =
  | Clean of int array
  | Corrected of int array * int
  | Uncorrectable

let extract_data ~k word_1based n =
  let data = Array.make k 0 in
  let next = ref 0 in
  for pos = 1 to n do
    if not (is_power_of_two pos) then begin
      data.(!next) <- word_1based.(pos);
      incr next
    end
  done;
  data

let decode ~k codeword =
  let r = parity_bits k in
  let n = k + r in
  if Array.length codeword <> n + 1 then invalid_arg "Ecc.decode: length mismatch";
  Array.iter (check_bit "decode") codeword;
  (* rebuild 1-based view *)
  let word = Array.make (n + 1) 0 in
  Array.blit codeword 0 word 1 n;
  let stored_overall = codeword.(n) in
  let syndrome = ref 0 in
  for i = 0 to r - 1 do
    let p = 1 lsl i in
    let acc = ref 0 in
    for pos = 1 to n do
      if pos land p <> 0 then acc := !acc lxor word.(pos)
    done;
    if !acc <> 0 then syndrome := !syndrome lor p
  done;
  let overall = ref 0 in
  for pos = 1 to n do
    overall := !overall lxor word.(pos)
  done;
  let overall_ok = !overall = stored_overall in
  match !syndrome, overall_ok with
  | 0, true -> Clean (extract_data ~k word n)
  | 0, false ->
    (* the overall parity bit itself flipped *)
    Corrected (extract_data ~k word n, 0)
  | s, false when s >= 1 && s <= n ->
    (* single-bit error at position s: flip and correct *)
    word.(s) <- 1 - word.(s);
    Corrected (extract_data ~k word n, s)
  | _, false -> Uncorrectable (* syndrome points outside the word *)
  | _, true -> Uncorrectable  (* nonzero syndrome but overall parity holds: double error *)

let overhead k = parity_bits k + 1

(* [decode] on a packed codeword: codeword bit [i] is Hamming position
   [i + 1], bit [n] the overall parity. The XOR of the set positions is
   the syndrome [decode] assembles one parity group at a time. *)
let decode_packed ~k cw =
  let r = parity_bits k in
  let n = k + r in
  if cw < 0 || cw lsr (n + 1) <> 0 then
    invalid_arg "Ecc.decode_packed: width mismatch";
  let syndrome = ref 0 and overall = ref 0 in
  for pos = 1 to n do
    if (cw lsr (pos - 1)) land 1 = 1 then begin
      syndrome := !syndrome lxor pos;
      overall := !overall lxor 1
    end
  done;
  let data_of w =
    let d = ref 0 and next = ref 0 in
    for pos = 1 to n do
      if not (is_power_of_two pos) then begin
        d := !d lor (((w lsr (pos - 1)) land 1) lsl !next);
        incr next
      end
    done;
    !d
  in
  let overall_ok = !overall = (cw lsr n) land 1 in
  match !syndrome, overall_ok with
  | 0, _ -> data_of cw (* clean, or only the overall parity bit flipped *)
  | s, false when s <= n -> data_of (cw lxor (1 lsl (s - 1)))
  | _ -> -1

module For_testing = struct
  let inject_error codeword ~pos =
    if pos < 0 || pos >= Array.length codeword then invalid_arg "Ecc.inject_error: bad index";
    let w = Array.copy codeword in
    w.(pos) <- 1 - w.(pos);
    w
end
