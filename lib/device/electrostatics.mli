(** One-dimensional Poisson solution across the gate stack — the
    "more accurate model" cross-check for the capacitor-divider equation
    (3). The stack control-gate / control-oxide / floating-gate /
    tunnel-oxide / channel is discretized with finite differences; the
    floating-gate charge enters as a sheet charge at its node; Dirichlet
    boundaries at the control gate (VGS) and channel (VS). With ideal
    (metal-like) gates the solution must reproduce the voltage divider
    exactly — verified by tests — while the framework also admits a finite
    floating-gate quantum capacitance. *)

type stack = {
  xco : float;       (** control-oxide thickness [m] *)
  xto : float;       (** tunnel-oxide thickness [m] *)
  eps_r_co : float;  (** control-oxide relative permittivity *)
  eps_r_to : float;  (** tunnel-oxide relative permittivity *)
  nodes_per_layer : int;  (** FD resolution per oxide *)
}

val of_fgt : ?nodes_per_layer:int -> Fgt.t -> stack
(** Extract the stack geometry from a device (both oxides share the
    device's tunnel-oxide permittivity, as in {!Fgt.make}). *)

type solution = {
  x : float array;        (** node positions, 0 at the control gate [m] *)
  potential : float array;(** electrostatic potential at the nodes [V] *)
  vfg : float;            (** floating-gate potential [V] *)
  field_tunnel : float;   (** field in the tunnel oxide [V/m], channel side *)
  field_control : float;  (** field in the control oxide [V/m] *)
}

val solve :
  stack -> vgs:float -> vs:float -> sigma_fg:float -> (solution, string) result
(** Solve Poisson with floating-gate sheet-charge density [sigma_fg]
    [C/m²]. Fails only on a degenerate discretization. *)

val vfg_divider : stack -> vgs:float -> vs:float -> sigma_fg:float -> float
(** The closed-form series-capacitor solution of the same problem:
    [VFG = (C_co·VGS + C_to·VS + σ_FG) / (C_co + C_to)] [V] — the
    equation-(3) model restricted to the two plate capacitances, with the
    areal charge/capacitance algebra checked inside ([F/m²·V = C/m²],
    [C/m² ÷ F/m² = V]). Used to validate {!solve}. *)
