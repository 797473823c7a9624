(** Single-wall carbon nanotubes, classified by chirality [(n, m)]. *)

type t = {
  n : int;
  m : int;
}

(* lint: allow L14 — no program calls it; test_cnt pins it *)
val make : int -> int -> t
(** Chirality indices; requires [n >= m >= 0] and [n > 0].
    @raise Invalid_argument otherwise. *)

(* lint: allow L14 — no program calls it; test_cnt pins it *)
val diameter : t -> float
(** Tube diameter [m]: [a·√(n² + nm + m²)/π] with [a] the graphene lattice
    constant. *)

(* lint: allow L14 — no program calls it; test_cnt pins it *)
val chiral_angle : t -> float
(** Chiral angle [rad], 0 for zigzag (m = 0), π/6 for armchair (n = m). *)

(* lint: allow L14 — no program calls it; test_cnt pins it *)
val is_metallic : t -> bool
(** True when [(n - m) mod 3 = 0] (band-structure metallicity rule). *)

(* lint: allow L14 — no program calls it; test_cnt pins it *)
val bandgap_ev : t -> float
(** Semiconducting gap [2·t·a_cc/d ≈ 0.77 eV·nm / d]; metallic tubes
    return 0. *)

(* lint: allow L14 — no program calls it; test_cnt pins it *)
val classify : t -> string
(** ["metallic"] or ["semiconducting"]. *)

(* lint: allow L14 — no program calls it; test_cnt pins it *)
val work_function : t -> float
(** Work function in eV (see {!Workfunction.Cnt}). *)
