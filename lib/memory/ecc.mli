(** Single-error-correcting, double-error-detecting (SEC-DED) extended
    Hamming code over bit arrays — the error-correction layer every flash
    controller wraps around raw pages, here used to absorb
    disturb/retention bit flips. Works on any data length: for [k] data
    bits it appends [r] parity bits with [2^r >= k + r + 1], plus one
    overall parity bit. *)

type codeword = int array
(** Bits (0/1); layout: positions 1.. in classic Hamming order with parity
    bits at powers of two, plus the overall parity bit appended last. *)

val parity_bits : int -> int
(** [parity_bits k] is the number of Hamming parity bits needed for [k]
    data bits (excluding the overall parity bit).
    @raise Invalid_argument if [k <= 0]. *)

val encode : int array -> codeword
(** Encode data bits (each 0 or 1). @raise Invalid_argument on empty input
    or non-bit values. *)

type decode_result =
  | Clean of int array            (** no error detected; data returned *)
  | Corrected of int array * int  (** single error corrected; flipped
                                      codeword position (1-based,
                                      [0] = overall parity bit) *)
  | Uncorrectable                 (** double error detected *)

val decode : k:int -> codeword -> decode_result
(** Decode a codeword for [k] data bits.
    @raise Invalid_argument on a length mismatch. *)

val decode_packed : k:int -> int -> int
(** [decode] on packed words: bit [i] of the argument is codeword entry
    [i], and bit [i] of the result is data bit [i]. [Clean] and
    [Corrected] both give the data; [Uncorrectable] gives [-1]. Pure, so
    callers may memoize it per codeword.
    @raise Invalid_argument if the argument is negative or has a bit set
    at or above [k + overhead k]. *)

val overhead : int -> int
(** Total parity bits (Hamming + overall) for [k] data bits. *)

module For_testing : sig
  val inject_error : codeword -> pos:int -> codeword
  (** Flip one bit (0-based array index) — fault injection for the decoder
      tests. @raise Invalid_argument on a bad index. *)
end
