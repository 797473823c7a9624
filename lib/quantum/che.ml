type params = {
  lambda : float;
  phi_b_ev : float;
  prefactor : float;
}

let injection_probability p ~lateral_field =
  if lateral_field <= 0. then 0.
  else begin
    (* phi_b in eV and q E lambda in eV cancel the charge: exponent is
       phi_b / (E_lat * lambda) with E in V/m. *)
    let exponent = p.phi_b_ev /. (lateral_field *. p.lambda) in
    p.prefactor *. exp (-.exponent)
  end

let gate_current p ~drain_current ~lateral_field =
  if drain_current < 0. then invalid_arg "Che.gate_current: negative drain current";
  drain_current *. injection_probability p ~lateral_field

let programming_current_budget p ~drain_current ~lateral_field ~cells =
  if cells < 0 then invalid_arg "Che.programming_current_budget: negative cells";
  ignore (injection_probability p ~lateral_field);
  float_of_int cells *. drain_current

module For_testing = struct
  let default_si = { lambda = 9.2e-9; phi_b_ev = 3.2; prefactor = 2e-3 }
end
