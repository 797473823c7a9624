let current_density (p : Fn.params) ~v_ox ~thickness =
  if thickness <= 0. then invalid_arg "Direct_tunneling: thickness <= 0";
  if v_ox <= 0. then 0.
  else begin
    let field = v_ox /. thickness in
    let x = v_ox /. p.Fn.phi_b_ev in
    if x >= 1. then Fn.current_density p ~field
    else begin
      let reduction = 1. -. ((1. -. x) ** 1.5) in
      p.Fn.a *. field *. field *. exp (-.p.Fn.b *. reduction /. field)
    end
  end
