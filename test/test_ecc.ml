module E = Gnrflash_memory.Ecc
open Gnrflash_testing.Testing

let data8 = [| 1; 0; 1; 1; 0; 0; 1; 0 |]

let test_parity_bits () =
  (* classic table: 4 data bits need 3 parity, 8 need 4, 64 need 7 *)
  Alcotest.(check int) "k=4" 3 (E.parity_bits 4);
  Alcotest.(check int) "k=8" 4 (E.parity_bits 8);
  Alcotest.(check int) "k=11" 4 (E.parity_bits 11);
  Alcotest.(check int) "k=64" 7 (E.parity_bits 64)

let test_overhead () =
  Alcotest.(check int) "k=64 SEC-DED overhead" 8 (E.overhead 64)

let test_encode_length () =
  let cw = E.encode data8 in
  Alcotest.(check int) "8 data + 4 parity + overall" 13 (Array.length cw)

let test_clean_roundtrip () =
  match E.decode ~k:8 (E.encode data8) with
  | E.Clean data -> Alcotest.(check (array int)) "data back" data8 data
  | _ -> Alcotest.fail "expected clean decode"

let test_single_error_corrected_everywhere () =
  let cw = E.encode data8 in
  for pos = 0 to Array.length cw - 1 do
    match E.decode ~k:8 (E.For_testing.inject_error cw ~pos) with
    | E.Corrected (data, _) ->
      Alcotest.(check (array int))
        (Printf.sprintf "corrected flip at %d" pos)
        data8 data
    | E.Clean _ -> Alcotest.failf "flip at %d not detected" pos
    | E.Uncorrectable -> Alcotest.failf "flip at %d not corrected" pos
  done

let test_double_error_detected () =
  let cw = E.encode data8 in
  let n = Array.length cw in
  (* flip pairs of data-region bits: must never silently mis-correct *)
  let miscorrections = ref 0 in
  for i = 0 to n - 2 do
    let corrupted = E.For_testing.inject_error (E.For_testing.inject_error cw ~pos:i) ~pos:(i + 1) in
    match E.decode ~k:8 corrupted with
    | E.Uncorrectable -> ()
    | E.Corrected (data, _) | E.Clean data ->
      if data <> data8 then incr miscorrections
      else () (* a double flip that cancels in the data view is acceptable *)
  done;
  Alcotest.(check int) "no silent corruption" 0 !miscorrections

let test_all_double_errors_exhaustive_small () =
  (* 4-bit payload: check every 2-bit corruption is flagged *)
  let data = [| 1; 0; 0; 1 |] in
  let cw = E.encode data in
  let n = Array.length cw in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      match E.decode ~k:4 (E.For_testing.inject_error (E.For_testing.inject_error cw ~pos:i) ~pos:j) with
      | E.Uncorrectable -> ()
      | E.Clean d | E.Corrected (d, _) ->
        if d <> data then
          Alcotest.failf "double error (%d, %d) silently corrupted data" i j
    done
  done

let test_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Ecc.encode: empty data") (fun () ->
      ignore (E.encode [||]));
  Alcotest.check_raises "non-bit" (Invalid_argument "Ecc.encode: non-bit value")
    (fun () -> ignore (E.encode [| 2 |]));
  Alcotest.check_raises "bad index" (Invalid_argument "Ecc.inject_error: bad index")
    (fun () -> ignore (E.For_testing.inject_error (E.encode data8) ~pos:99))

(* The packed decode against [decode] on every (k + overhead k)-bit word
   for k = 8 (all 8192 of them: clean, single- and multi-bit errors):
   [Clean] and [Corrected] give the packed data, [Uncorrectable] -1. *)
let test_decode_packed_exhaustive () =
  let k = 8 in
  let n = k + E.overhead k in
  let pack bits = Array.fold_right (fun b w -> (w lsl 1) lor b) bits 0 in
  let counts = Array.make 3 0 in
  for cw = 0 to (1 lsl n) - 1 do
    let expected =
      match E.decode ~k (Array.init n (fun i -> (cw lsr i) land 1)) with
      | E.Clean d ->
        counts.(0) <- counts.(0) + 1;
        pack d
      | E.Corrected (d, _) ->
        counts.(1) <- counts.(1) + 1;
        pack d
      | E.Uncorrectable ->
        counts.(2) <- counts.(2) + 1;
        -1
    in
    if E.decode_packed ~k cw <> expected then
      Alcotest.failf "codeword 0x%X: decode_packed %d, decode %d" cw
        (E.decode_packed ~k cw) expected
  done;
  (* 256 clean codewords, each with 13 single-flip neighbours *)
  Alcotest.(check (array int)) "outcome census" [| 256; 256 * n; 8192 - (256 * (n + 1)) |]
    counts;
  Alcotest.check_raises "bit above the codeword"
    (Invalid_argument "Ecc.decode_packed: width mismatch") (fun () ->
      ignore (E.decode_packed ~k (1 lsl n)))

(* Native code only, like the service's allocation pins: a packed decode
   allocates nothing, clean or corrected. Measured on the 256 codewords
   of the 8-bit data word and one single-flip neighbour of each. *)
let test_decode_packed_allocation () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let k = 8 in
  let n = k + E.overhead k in
  let pack bits = Array.fold_right (fun b w -> (w lsl 1) lor b) bits 0 in
  let clean =
    Array.init 256 (fun d -> pack (E.encode (Array.init k (fun i -> (d lsr i) land 1))))
  in
  let words =
    Array.append clean (Array.mapi (fun d cw -> cw lxor (1 lsl (d mod n))) clean)
  in
  let failed = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to Array.length words - 1 do
    if E.decode_packed ~k words.(i) < 0 then incr failed
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int (Array.length words) in
  Alcotest.(check (float 0.)) "minor words per decode" 0. per_call;
  Alcotest.(check int) "every word decoded" 0 !failed

let prop_roundtrip_any_data =
  prop "encode/decode roundtrip" ~count:100
    QCheck2.Gen.(array_size (int_range 1 40) (int_range 0 1))
    (fun data ->
       match E.decode ~k:(Array.length data) (E.encode data) with
       | E.Clean d -> d = data
       | _ -> false)

let prop_single_error_recovered =
  prop "any single flip is recovered" ~count:100
    QCheck2.Gen.(pair (array_size (int_range 1 32) (int_range 0 1)) (int_range 0 1000))
    (fun (data, seed) ->
       let cw = E.encode data in
       let pos = seed mod Array.length cw in
       match E.decode ~k:(Array.length data) (E.For_testing.inject_error cw ~pos) with
       | E.Corrected (d, _) -> d = data
       | _ -> false)

let () =
  Alcotest.run "ecc"
    [
      ( "ecc",
        [
          case "parity bit counts" test_parity_bits;
          case "overhead" test_overhead;
          case "codeword length" test_encode_length;
          case "clean roundtrip" test_clean_roundtrip;
          case "single errors corrected" test_single_error_corrected_everywhere;
          case "double errors detected" test_double_error_detected;
          case "exhaustive double errors (k=4)" test_all_double_errors_exhaustive_small;
          case "validation" test_validation;
          case "packed decode allocates nothing" test_decode_packed_allocation;
          case "packed decode = decode (exhaustive, k=8)"
            test_decode_packed_exhaustive;
          prop_roundtrip_any_data;
          prop_single_error_recovered;
        ] );
    ]
