(** Linear regression, used e.g. to extract Fowler–Nordheim parameters from
    an FN plot (ln(J/E²) vs 1/E). *)

type fit = {
  slope : float;
  intercept : float;
  r_squared : float;       (** coefficient of determination *)
  slope_stderr : float;    (** standard error of the slope *)
  intercept_stderr : float;(** standard error of the intercept *)
  n : int;                 (** number of points used *)
}

val ols : float array -> float array -> (fit, string) result
(** [ols xs ys] is the ordinary least-squares line through the data.
    Requires at least two points and non-constant [xs]. *)

val wls : weights:float array -> float array -> float array -> (fit, string) result
(** Weighted least squares with the given non-negative weights (standard
    errors are reported relative to the weighted residuals). *)
