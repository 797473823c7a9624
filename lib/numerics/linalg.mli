(** Small dense linear algebra: vectors as [float array], matrices as
    row-major [float array array]. Sized for the modest systems that appear
    in device modeling (the Poisson stack, transfer matrices). *)

(** {1 Vectors} *)

(* lint: allow L14 — no program calls it; test_linalg pins it *)
val dot : float array -> float array -> float
(** Dot product. @raise Invalid_argument on length mismatch. *)

(* lint: allow L14 — no program calls it; test_linalg pins it *)
val norm2 : float array -> float
(** Euclidean norm. *)

(* lint: allow L14 — no program calls it; test_linalg pins it *)
val scale : float -> float array -> float array
(** [scale a x] is [a*x] (fresh array). *)

(* lint: allow L14 — no program calls it; test_linalg pins it *)
val add : float array -> float array -> float array
(** Elementwise sum. @raise Invalid_argument on length mismatch. *)

(* lint: allow L14 — no program calls it; test_linalg pins it *)
val sub : float array -> float array -> float array
(** Elementwise difference. @raise Invalid_argument on length mismatch. *)

(** {1 Matrices} *)

(* lint: allow L14 — no program calls it; test_linalg pins it *)
val mat_vec : float array array -> float array -> float array
(** Matrix-vector product. *)

(* lint: allow L14 — no program calls it; test_linalg pins it *)
val mat_mul : float array array -> float array array -> float array array
(** Matrix-matrix product. @raise Invalid_argument on dimension mismatch. *)

(* lint: allow L14 — no program calls it; test_linalg pins it *)
val transpose : float array array -> float array array
(** Matrix transpose. *)

(* lint: allow L14 — no program calls it; test_linalg pins it *)
val identity : int -> float array array
(** Identity matrix of the given order. *)

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
