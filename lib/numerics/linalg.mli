(** Small linear algebra for device modeling: a tridiagonal solver for the
    Poisson stack and complex 2x2 matrices for transfer matrices. *)

val solve_tridiag :
  sub:float array -> diag:float array -> sup:float array -> float array ->
  (float array, string) result
(** [solve_tridiag ~sub ~diag ~sup rhs] solves a tridiagonal system with the
    Thomas algorithm. [sub.(0)] and [sup.(n-1)] are ignored. *)

(** {1 Complex 2x2 matrices} (for transfer-matrix tunneling calculations) *)

type cmat2 = {
  a : Complex.t; b : Complex.t;
  c : Complex.t; d : Complex.t;
}

val cmat2_mul : cmat2 -> cmat2 -> cmat2
(** 2x2 complex matrix product. *)

val cmat2_id : cmat2
(** 2x2 complex identity. *)
