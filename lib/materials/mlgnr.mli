(** Multilayer graphene nanoribbon (MLGNR) stacks — the floating gate and
    channel material of the proposed device.

    The stack model captures the MLGNR effects the device layer needs:
    (i) total quantum capacitance of the stack (parallel combination with
    interlayer screening), (ii) areal charge-storage capacity of the
    floating gate, and (iii) the Landauer conductance of the channel. *)

type t = {
  ribbon : Gnr.t;     (** per-layer ribbon geometry *)
  layers : int;       (** number of stacked layers, >= 1 *)
}

val make : Gnr.t -> layers:int -> t
(** Build a stack descriptor. @raise Invalid_argument if [layers < 1]. *)

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
