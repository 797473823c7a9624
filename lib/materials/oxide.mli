(** Gate-dielectric materials. All energies in eV, fields in V/m. *)

type t = {
  eps_r : float;              (** relative permittivity *)
  electron_affinity : float;  (** χ, eV below vacuum of the conduction band *)
  m_ox : float;               (** effective tunneling electron mass, units of m0 *)
  breakdown_field : float;    (** intrinsic breakdown field, V/m *)
}

val sio2 : t
(** Thermal silicon dioxide — the paper's assumed tunnel/control oxide. *)
