(** Zero-cost dimensioned floats for the FN / floating-gate pipeline.

    A [('d) qty] is a [private float] carrying a phantom dimension ['d]:
    it compiles to an unboxed [float] (constructors and accessors are
    identities), so threading it through the physics hot path costs
    nothing at runtime — but mixing dimensions is a type error at
    [dune build] time.

    The dimension algebra is deliberately small. Base dimensions are
    abstract types; derived dimensions are [( 'num, 'den ) per] pairs, so
    the generic operators can cancel them:

    - [x /@ y] divides a ['n qty] by a ['d qty] giving a [('n, 'd) per qty]
      (e.g. [volt /@ metre] is a field in V/m);
    - [r *@ y] multiplies a rate [('n, 'd) per qty] back by its
      denominator (e.g. [v_per_m *@ metre = volt], [farad *@ volt =
      coulomb]);
    - [x //@ r] divides a quantity by a rate with matching numerator
      (e.g. [coulomb //@ farad = volt] — since [farad = (coulomb, volt)
      per]).

    Same-dimension sums/differences use [+@]/[-@]; dimensionless factors
    use {!scale} and {!ratio}. The only sanctioned ways to {e cross}
    dimensions are the named conversions at the bottom of this interface
    (eV↔J, areal capacitance and charge): everything else simply
    does not type-check. Paper mapping (Lenzlinger–Snow FN, eqs. 1, 4–7):
    barrier heights are [ev]/[joule], oxide fields [v_per_m], the network
    capacitances of eq. (2) [farad], stored charge [coulomb], current
    densities [a_per_m2], and the FN prefactor A is {!fn_a} (A/m² per
    (V/m)²). *)

type +'d qty = private float

(** {1 Dimensions} *)

type volt
type metre
type m2
type second
type joule
type ev

(** [coulomb] is a base dimension; amperes, farads and every "per area"
    quantity are derived from it so the generic operators cancel them. *)
type coulomb

type ('num, 'den) per

type v_per_m = (volt, metre) per
type farad = (coulomb, volt) per
type f_per_m2 = (farad, m2) per
type ampere = (coulomb, second) per
type a_per_m2 = (ampere, m2) per
type c_per_m2 = (coulomb, m2) per

(** The Lenzlinger–Snow prefactor A of [J = A·E²·exp(−B/E)]: an areal
    current density per squared field, so [fn_a *@ field *@ field]
    is an [a_per_m2]. The exponent coefficient B is a plain {!v_per_m}. *)
type fn_a = ((a_per_m2, v_per_m) per, v_per_m) per

(** {1 Constructors (SI magnitudes in, zero cost)} *)

val volt : float -> volt qty
val metre : float -> metre qty
val square_metre : float -> m2 qty
val ev : float -> ev qty
val coulomb : float -> coulomb qty
val farad : float -> farad qty
val v_per_m : float -> v_per_m qty
val f_per_m2 : float -> f_per_m2 qty
val a_per_m2 : float -> a_per_m2 qty
val c_per_m2 : float -> c_per_m2 qty
val fn_a : float -> fn_a qty

val to_float : 'd qty -> float
(** Extract the SI magnitude. [(x :> float)] works too — the type is
    [private float]. *)

val zero : 'd qty
(** Zero is dimension-polymorphic (0 V = 0 m = ... = 0.). *)

(** {1 Dimension-preserving arithmetic} *)

val ( +@ ) : 'd qty -> 'd qty -> 'd qty
val ( -@ ) : 'd qty -> 'd qty -> 'd qty
val scale : float -> 'd qty -> 'd qty
val neg : 'd qty -> 'd qty

val ratio : 'd qty -> 'd qty -> float
(** [ratio a b = a /. b] — same dimension in, dimensionless out. *)

(** {1 Dimension-cancelling products} *)

val ( *@ ) : ('n, 'd) per qty -> 'd qty -> 'n qty
val ( /@ ) : 'n qty -> 'd qty -> ('n, 'd) per qty
val ( //@ ) : 'n qty -> ('n, 'd) per qty -> 'd qty

val area : metre qty -> metre qty -> m2 qty
(** [area w l] — the one sanctioned length×length product. *)

(** {1 Comparisons (same dimension only)} *)

val ( <@ ) : 'd qty -> 'd qty -> bool
val ( <=@ ) : 'd qty -> 'd qty -> bool
val ( >@ ) : 'd qty -> 'd qty -> bool

(** {1 Sanctioned dimension crossings}

    These are the {e only} ways across a dimension boundary; each is a
    physically meaningful conversion, kept here so the crossing rule is
    auditable in one place. *)

val ev_to_joule : ev qty -> joule qty
(** Multiplies by the (exact, SI-defined) elementary charge
    1.602176634e-19 C — bit-identical to [x *. Constants.ev]. *)

val areal_displacement : f_per_m2 qty -> v:volt qty -> c_per_m2 qty
(** F/m² × V → C/m² — the sheet-charge form of Q = C·V. *)

val voltage_across_areal : c_per_m2 qty -> f_per_m2 qty -> volt qty
(** C/m² ÷ F/m² → V. *)
