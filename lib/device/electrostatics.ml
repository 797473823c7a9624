module C = Gnrflash_physics.Constants
module L = Gnrflash_numerics.Linalg
module U = Gnrflash_units

type stack = {
  xco : float;
  xto : float;
  eps_r_co : float;
  eps_r_to : float;
  nodes_per_layer : int;
}

let of_fgt ?(nodes_per_layer = 50) (t : Fgt.t) =
  {
    xco = t.Fgt.xco;
    xto = t.Fgt.xto;
    eps_r_co = 3.9;
    eps_r_to = 3.9;
    nodes_per_layer;
  }

type solution = {
  x : float array;
  potential : float array;
  vfg : float;
  field_tunnel : float;
  field_control : float;
}

(* Finite differences for d/dx (eps dV/dx) = -rho with a sheet charge at
   the floating-gate node. Nodes: 0 .. n-1 spanning [0, xco + xto]; node
   [m = nodes_per_layer] is the FG plane. Dirichlet: V(0) = vgs,
   V(n-1) = vs. *)
let solve stack ~vgs ~vs ~sigma_fg =
  let m = stack.nodes_per_layer in
  if m < 2 then Error "Electrostatics.solve: too few nodes"
  else begin
    let n = (2 * m) + 1 in
    let h_co = stack.xco /. float_of_int m in
    let h_to = stack.xto /. float_of_int m in
    let eps_co = C.eps0 *. stack.eps_r_co in
    let eps_to = C.eps0 *. stack.eps_r_to in
    (* unknowns: interior nodes 1 .. n-2 *)
    let dim = n - 2 in
    let sub = Array.make dim 0. and diag = Array.make dim 0. and sup = Array.make dim 0. in
    let rhs = Array.make dim 0. in
    (* flux coefficient between node i and i+1 *)
    let coupling i =
      (* segment i -> i+1 lies in the control oxide when i < m *)
      if i < m then eps_co /. h_co else eps_to /. h_to
    in
    for row = 0 to dim - 1 do
      let i = row + 1 in
      let c_left = coupling (i - 1) and c_right = coupling i in
      diag.(row) <- -.(c_left +. c_right);
      if row > 0 then sub.(row) <- c_left;
      if row < dim - 1 then sup.(row) <- c_right;
      (* sheet charge at the FG node *)
      if i = m then rhs.(row) <- rhs.(row) -. sigma_fg;
      (* boundary contributions *)
      if i = 1 then rhs.(row) <- rhs.(row) -. (c_left *. vgs);
      if i = n - 2 then rhs.(row) <- rhs.(row) -. (c_right *. vs)
    done;
    match L.solve_tridiag ~sub ~diag ~sup rhs with
    | Error e -> Error e
    | Ok interior ->
      let potential = Array.make n 0. in
      potential.(0) <- vgs;
      potential.(n - 1) <- vs;
      Array.blit interior 0 potential 1 dim;
      let x =
        Array.init n (fun i ->
            if i <= m then float_of_int i *. h_co
            else stack.xco +. (float_of_int (i - m) *. h_to))
      in
      let vfg = potential.(m) in
      let field_tunnel = (vfg -. vs) /. stack.xto in
      let field_control = (vgs -. vfg) /. stack.xco in
      Ok { x; potential; vfg; field_tunnel; field_control }
  end

let areal_cap ~eps_r ~thickness =
  (* ε₀εᵣ/t [F/m²] — the (F/m)/m intermediate has no name in the
     per-algebra, so this constructor is the sanctioned boundary. *)
  U.f_per_m2 (C.eps0 *. eps_r /. thickness)

let vfg_divider stack ~vgs ~vs ~sigma_fg =
  let c_co = areal_cap ~eps_r:stack.eps_r_co ~thickness:stack.xco in
  let c_to = areal_cap ~eps_r:stack.eps_r_to ~thickness:stack.xto in
  let num =
    U.(areal_displacement c_co ~v:(volt vgs) +@ areal_displacement c_to ~v:(volt vs)
       +@ c_per_m2 sigma_fg)
  in
  U.to_float (U.voltage_across_areal num U.(c_co +@ c_to))
