(** Work functions of electrode materials and the barrier heights they form
    against gate dielectrics. All energies in eV. *)

type electrode =
  | N_poly_si       (** degenerately doped n+ polysilicon *)
  | P_poly_si       (** p+ polysilicon *)
  | Aluminium
  | Titanium_nitride
  | Graphene        (** monolayer graphene at charge neutrality *)
  | Mlgnr of int    (** multilayer graphene nanoribbon with the given layer count *)
  | Custom of string * float  (** name and work function [eV] *)

val work_function : electrode -> float
(** Work function in eV. MLGNR converges from the monolayer value toward
    graphite (≈ 4.6 eV) as layers are added. *)

val barrier_height : electrode -> Oxide.t -> float
(** [barrier_height e ox] is the electron tunneling barrier
    Φ_B = W(e) − χ(ox) in eV — the energy an electron at the electrode Fermi
    level must surmount to enter the oxide conduction band. *)
