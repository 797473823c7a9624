(** Graphene nanoribbons (GNR) in the nearest-neighbour tight-binding
    picture.

    Armchair ribbons are indexed by the number of dimer lines [n] across the
    width; their gap follows the well-known three-family rule
    (n = 3p, 3p+1 metallic-ish gap families; n = 3p+2 quasi-metallic).
    Zigzag ribbons are metallic in this approximation (edge states). *)

type edge =
  | Armchair
  | Zigzag

type t = {
  edge : edge;
  n : int;        (** dimer lines (armchair) or zigzag chains across width *)
}

val make : edge -> int -> t
(** Construct a ribbon descriptor. @raise Invalid_argument if [n < 2]. *)

(* lint: allow L14 — no program calls it; test_gnr pins it *)
val width : t -> float
(** Geometric width [m]: [(n-1)·√3/2·a_cc] for armchair,
    [(3n/2 - 1)·a_cc] for zigzag. *)

(* lint: allow L14 — no program calls it; test_gnr pins it *)
val family : t -> int
(** For armchair ribbons, [n mod 3] (0, 1 or 2); zigzag ribbons return [-1]. *)

(* lint: allow L14 — no program calls it; test_gnr pins it *)
val subband_energy : t -> p:int -> k:float -> float
(** Tight-binding conduction subband [p] at longitudinal wavevector [k]
    [1/m], in joules:
    [E = t·sqrt(1 + 4 cosθp cos(ka/2) + 4 cos²θp)], θp = pπ/(n+1).
    @raise Invalid_argument unless [1 <= p <= n]. *)

(* lint: allow L14 — no program calls it; test_gnr pins it *)
val bandgap_ev : t -> float
(** Bandgap in eV: armchair — [min_p 2|t|·|1 + 2 cos θp|] at k = 0;
    zigzag — 0 (edge-state metallicity in nearest-neighbour TB). *)

(* lint: allow L14 — no program calls it; test_gnr pins it *)
val empirical_gap_ev : width_nm:float -> float
(** The widely used empirical scaling [Eg ≈ 0.8 eV·nm / W] for comparison
    against the tight-binding result.
    @raise Invalid_argument if [width_nm <= 0.]. *)

val conducting_channels : t -> ef_ev:float -> int
(** Number of spin-degenerate subbands whose edge lies below the Fermi level
    [ef_ev] (measured from midgap) — the Landauer channel count used by the
    readout model. *)
