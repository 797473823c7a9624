(** Bit-error-rate pipeline: process variation broadens each MLC level's
    threshold distribution; overlap past the read references produces raw
    bit errors; the SEC-DED code absorbs single errors per codeword. This
    module closes the loop between {!Gnrflash_device.Variation},
    {!Mlc} and {!Ecc}.

    Raw per-cell error probability for a level with placement spread σ and
    read margin m (Gaussian tails on both sides):
    [p = 0.5·erfc(m / (σ·√2))] per adjacent reference. *)

val raw_cell_error_rate : sigma_dvt:float -> margin:float -> float
(** Two-sided Gaussian tail probability of a cell read landing past a
    reference [margin] volts away, given placement spread [sigma_dvt].
    @raise Invalid_argument for non-positive inputs. *)

val mlc_raw_ber : ?config:Mlc.config -> sigma_dvt:float -> unit -> float
(** Average raw bit error rate over the levels of an MLC config (interior
    levels see two references, edge levels one; Gray coding makes each
    level error cost exactly one bit flip). *)

val page_failure_rate :
  raw_ber:float -> codeword_bits:int -> codewords_per_page:int -> float
(** Probability a page read fails: a SEC-DED codeword fails when ≥ 2 of
    its bits flip (binomial tail), and a page fails when any codeword
    does. Computed in log space for tiny rates. *)

type analysis = {
  sigma_dvt : float;
  raw_ber : float;
  codeword_failure : float;
  page_failure : float;     (** per 4 kB page (512 × 72-bit codewords) *)
  acceptable : bool;         (** page failure below 1e-12 *)
}

val analyze : ?config:Mlc.config -> sigma_dvt:float -> unit -> analysis
(** End-to-end: spread → raw BER → post-ECC page failure for a 4 kB page
    protected by 64-data-bit SEC-DED words. *)

val max_tolerable_sigma : ?config:Mlc.config -> unit -> float
(** Largest placement σ [V] keeping the page-failure rate below 1e-12 —
    the variation budget the cell designer must meet, found by
    bisection. *)
