(** Multilayer graphene nanoribbon (MLGNR) stacks — the floating gate and
    channel material of the proposed device.

    The stack model captures the three MLGNR effects the device layer
    needs: (i) gap shrinkage with layer count, (ii) total quantum
    capacitance of the stack (series/parallel combination with interlayer
    screening), and (iii) areal charge-storage capacity of the floating
    gate. *)

type t = {
  ribbon : Gnr.t;     (** per-layer ribbon geometry *)
  layers : int;       (** number of stacked layers, >= 1 *)
  interlayer : float; (** interlayer spacing [m], default graphite 0.335 nm *)
}

val make : ?interlayer:float -> Gnr.t -> layers:int -> t
(** Build a stack descriptor. @raise Invalid_argument if [layers < 1]. *)

(* lint: allow L14 — no program calls it; test_mlgnr pins it *)
val thickness : t -> float
(** Physical stack thickness [m] ([interlayer × (layers-1)] plus one layer). *)

(* lint: allow L14 — no program calls it; test_mlgnr pins it *)
val bandgap_ev : t -> float
(** Effective gap: the monolayer tight-binding gap divided by an
    interlayer-coupling factor [1 + 0.5·(layers - 1)] — multilayer AGNRs
    close their gap quickly with layer count (Sahu et al., PRB 2008). *)

val quantum_capacitance : t -> ef_ev:float -> temp:float -> float
(** Stack quantum capacitance per unit area [F/m²]. The top layer feels the
    full field; deeper layers are screened with characteristic length ~1
    layer, so contributions fall geometrically (factor {!screening_factor}
    per layer) and add in parallel. *)

val screening_factor : float
(** Per-layer interlayer screening attenuation (≈ 0.53, i.e. screening
    length of about 1.6 layers). *)

val storable_charge : t -> ef_max_ev:float -> float
(** Maximum areal charge density [C/m²] the stack can absorb while its
    Fermi level rises by [ef_max_ev]: [q·Σ_layers ∫₀^{Ef} DOS]. Determines
    the floating-gate saturation charge independent of the Jin = Jout
    dynamic limit. *)

val sheet_conductance : t -> ef_ev:float -> float
(** Landauer sheet conductance [S] of the stack:
    [layers × channels × 2q²/h] (ballistic limit, used by the readout
    model). *)
