type t = {
  eps_r : float;
  electron_affinity : float;
  m_ox : float;
  breakdown_field : float;
}

(* Parameter sources: Robertson, "High dielectric constant oxides" (2004)
   for the affinity; Lenzlinger & Snow and Depas et al. for m_ox; the
   breakdown field is the usual intrinsic value. *)

let sio2 =
  {
    eps_r = 3.9;
    electron_affinity = 0.9;
    m_ox = 0.42;
    breakdown_field = 1.0e9 (* ~10 MV/cm *);
  }
