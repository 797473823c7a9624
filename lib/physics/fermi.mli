(** Fermi–Dirac carrier statistics. Energies in joules, temperatures in
    kelvin. *)

(* lint: allow L14 — no program calls it; test_fermi pins it *)
val occupation : ef:float -> t:float -> float -> float
(** [occupation ~ef ~t e] is the Fermi–Dirac occupation
    [1/(1 + exp((e - ef)/kT))]. Handles the [t = 0] limit (step function)
    and avoids overflow for large arguments. *)

(* lint: allow L14 — no program calls it; test_fermi pins it *)
val maxwell_boltzmann : ef:float -> t:float -> float -> float
(** Non-degenerate (Boltzmann) limit [exp(-(e - ef)/kT)]. *)

val supply_difference : ef:float -> t:float -> qv:float -> float -> float
(** [supply_difference ~ef ~t ~qv e] is
    [kT·ln((1+exp((ef−e)/kT)) / (1+exp((ef−e−qv)/kT)))] — the Tsu–Esaki
    supply function for a junction with potential drop [qv] (joules),
    evaluated stably for both signs and large arguments. *)

(* lint: allow L14 — no program calls it; test_fermi pins it *)
val fermi_integral_half : float -> float
(** Fermi–Dirac integral of order 1/2, [F_{1/2}(η)], by the Bednarczyk
    analytic approximation (error < 0.4 % over all η) — used for degenerate
    carrier densities. *)
