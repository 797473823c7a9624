(** Channel-hot-electron (CHE) injection — the programming mechanism of
    NOR-type cells, modeled with the lucky-electron picture
    (Tam, Ko & Hu 1984). Included as the baseline the paper's Section II
    compares FN programming against. *)

type params = {
  lambda : float;       (** hot-electron mean free path [m], ~9 nm in Si *)
  phi_b_ev : float;     (** injection barrier [eV] *)
  prefactor : float;    (** empirical collection efficiency C, ~2e-3 *)
}

(* lint: allow L14 — no program calls it; test_che pins it *)
val injection_probability : params -> lateral_field:float -> float
(** Lucky-electron probability [C·exp(−Φ_B/(q·λ·E_lat))]; [0.] for
    non-positive fields. *)

(* lint: allow L14 — no program calls it; test_che pins it *)
val gate_current : params -> drain_current:float -> lateral_field:float -> float
(** Gate (injection) current [A] given the cell drain current and the peak
    lateral channel field. *)

(* lint: allow L14 — no program calls it; test_che pins it *)
val programming_current_budget :
  params -> drain_current:float -> lateral_field:float -> cells:int -> float
(** Total supply current [A] to program [cells] cells in parallel — the
    quantity that makes CHE ~10⁶× more power-hungry per cell than FN
    (paper Section II: 0.3–1 mA per cell vs < 1 nA). *)

(** The parameter set [test/test_che.ml] runs the model on. *)
module For_testing : sig
  val default_si : params
  (** Textbook silicon parameters (λ = 9.2 nm, Φ_B = 3.2 eV, C = 2×10⁻³). *)
end
