(** Small dense linear algebra: vectors as [float array], matrices as
    row-major [float array array]. Sized for the modest systems that appear
    in device modeling (spline systems, least squares, transfer matrices). *)

(** {1 Vectors} *)

val dot : float array -> float array -> float
(** Dot product. @raise Invalid_argument on length mismatch. *)

val norm2 : float array -> float
(** Euclidean norm. *)

val scale : float -> float array -> float array
(** [scale a x] is [a*x] (fresh array). *)

val add : float array -> float array -> float array
(** Elementwise sum. @raise Invalid_argument on length mismatch. *)

val sub : float array -> float array -> float array
(** Elementwise difference. @raise Invalid_argument on length mismatch. *)

(** {1 Matrices} *)

val mat_vec : float array array -> float array -> float array
(** Matrix-vector product. *)

val mat_mul : float array array -> float array array -> float array array
(** Matrix-matrix product. @raise Invalid_argument on dimension mismatch. *)

val transpose : float array array -> float array array
(** Matrix transpose. *)

val identity : int -> float array array
(** Identity matrix of the given order. *)

val solve : float array array -> float array -> (float array, string) result
(** [solve a b] solves [a x = b] by Gaussian elimination with partial
    pivoting. Returns [Error] for a (numerically) singular matrix. The
    inputs are not modified. *)

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

val cmat2_det : cmat2 -> Complex.t
(** Determinant. *)
