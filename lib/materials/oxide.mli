(** Gate-dielectric materials. All energies in eV, fields in V/m. *)

type t = {
  name : string;
  eps_r : float;              (** relative permittivity *)
  electron_affinity : float;  (** χ, eV below vacuum of the conduction band *)
  bandgap : float;            (** eV *)
  m_ox : float;               (** effective tunneling electron mass, units of m0 *)
  breakdown_field : float;    (** intrinsic breakdown field, V/m *)
}

val sio2 : t
(** Thermal silicon dioxide — the paper's assumed tunnel/control oxide. *)

(* lint: allow L14 — no program calls it; test_oxide pins it *)
val al2o3 : t
(** Alumina (high-k). *)

(* lint: allow L14 — no program calls it; test_oxide pins it *)
val hfo2 : t
(** Hafnia (high-k). *)

(* lint: allow L14 — no program calls it; test_oxide pins it *)
val all : t list
(** Every material: the three above plus silicon nitride and hexagonal
    boron nitride (the natural 2D-stack dielectric for graphene devices). *)

(* lint: allow L14 — no program calls it; test_oxide pins it *)
val by_name : string -> t option
(** Case-insensitive lookup in {!all}. *)

(* lint: allow L14 — no program calls it; test_oxide pins it *)
val permittivity : t -> float
(** Absolute permittivity ε₀·εᵣ [F/m]. *)

(* lint: allow L14 — no program calls it; test_oxide pins it *)
val capacitance_per_area : t -> thickness:float -> float
(** Parallel-plate capacitance per unit area [F/m²] of a film of the given
    thickness [m]. @raise Invalid_argument if [thickness <= 0.]. *)
