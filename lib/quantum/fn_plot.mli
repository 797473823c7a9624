(** Fowler–Nordheim plot: [ln(J/E²)] against [1/E] is a straight line with
    slope [−B] and intercept [ln A]. The paper (after refs [1]–[3], [9])
    derives its A and B parameters from exactly this construction; this
    module generates FN plots from models or measured data and extracts the
    parameters by least squares. *)

type extraction = {
  a : float;          (** extracted prefactor [A/V²] *)
  b : float;          (** extracted slope coefficient [V/m] *)
  r_squared : float;  (** linearity of the FN plot *)
}

val points_of_data :
  fields:float array -> currents:float array -> (float * float) array
(** Same transformation applied to (field [V/m], J [A/m²]) measurements.
    Pairs with non-positive J are dropped.
    @raise Invalid_argument on length mismatch. *)

val extract :
  fields:float array -> currents:float array -> (extraction, string) result
(** Least-squares extraction of A and B from data. Succeeds when at least
    two valid points remain. *)
