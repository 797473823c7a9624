(** Fermi–Dirac statistics of a tunnel junction's supply. Energies in
    joules, temperatures in kelvin. *)

val supply_difference : ef:float -> t:float -> qv:float -> float -> float
(** [supply_difference ~ef ~t ~qv e] is
    [kT·ln((1+exp((ef−e)/kT)) / (1+exp((ef−e−qv)/kT)))] — the Tsu–Esaki
    supply function for a junction with potential drop [qv] (joules),
    evaluated stably for both signs and large arguments. *)
