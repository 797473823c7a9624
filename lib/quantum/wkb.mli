(** Wentzel–Kramers–Brillouin tunneling through an arbitrary
    piecewise-linear barrier. *)

val action_integral : Barrier.t -> energy:float -> float
(** The WKB exponent [2/ħ ∫ √(2m(V(x) − E)) dx] over the classically
    forbidden region. [0.] when the electron energy clears the barrier. *)

val transmission : Barrier.t -> energy:float -> float
(** Transmission probability [exp(−action)], in [0, 1]. Energies above the
    barrier maximum transmit with probability 1 (WKB has no above-barrier
    reflection). *)

(** Memoized closed-form WKB evaluator for one fixed (barrier, bias)
    shape, shared across every quadrature node of a supply-function
    integral. Because a {!Barrier.t} is piecewise linear, the action
    integrand [√(2m(V−E))] integrates segment-by-segment in closed form
    ([(2/3)((V_b−E)₊^{3/2} − (V_a−E)₊^{3/2})/slope], width·√(2m(V−E)) for
    flat segments) — exact, allocation-free per energy, and with zero
    integrand evaluations, versus one adaptive-Simpson recursion per node
    for {!action_integral}. Building the cache counts [wkb/cache_build];
    each energy lookup counts [wkb/cache_hit]. The cache is immutable and
    never invalidates: a new barrier (different bias, thickness, or
    height) requires a new {!Cache.make}. *)
module Cache : sig
  type t

  val make : Barrier.t -> t
  (** Precompute per-segment geometry (width, endpoint heights, slope) and
      √(2m). Counts [wkb/cache_build]. *)

  val action : t -> energy:float -> float
  (** Closed-form WKB exponent; agrees with {!action_integral} to the
      adaptive quadrature's tolerance (~1e-9 relative) and is exact for
      the piecewise-linear barrier. Counts [wkb/cache_hit]. *)

  val transmission : t -> energy:float -> float
  (** [exp (−action)], clamped to 1 above the barrier maximum. *)
end

(** The closed-form oracle [test/test_wkb.ml] checks {!transmission}
    against. No program calls it. *)
module For_testing : sig
  val transmission_triangular :
    phi_b:float -> field:float -> m_eff:float -> float
  (** Closed-form WKB transmission at the Fermi level (E = 0) through the FN
      triangle: [exp(−4√(2m)·φ_B^{3/2} / (3ħqE))]. *)
end
