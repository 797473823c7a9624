(** Graphene nanoribbons (GNR) in the nearest-neighbour tight-binding
    picture.

    Armchair ribbons are indexed by the number of dimer lines [n] across the
    width; their subband edges at k = 0 are [t·|1 + 2 cos θp|],
    θp = pπ/(n+1), which gives the three-family gap rule (n = 3p+2
    quasi-metallic). Zigzag ribbons are metallic in this approximation
    (edge states). *)

type edge =
  | Armchair
  | Zigzag

type t = {
  edge : edge;
  n : int;        (** dimer lines (armchair) or zigzag chains across width *)
}

val make : edge -> int -> t
(** Construct a ribbon descriptor. @raise Invalid_argument if [n < 2]. *)

val conducting_channels : t -> ef_ev:float -> int
(** Number of spin-degenerate subbands whose edge lies below the Fermi level
    [ef_ev] (measured from midgap) — the Landauer channel count used by the
    readout model. *)
