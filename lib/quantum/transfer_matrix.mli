(** Transfer-matrix transmission through a barrier, treating the
    piecewise-linear profile as a staircase of [steps] constant-potential
    slabs. Exact for the staircase; converges to the true profile as steps
    grow. More accurate than WKB near and above the barrier top. *)

val transmission : ?steps:int -> Barrier.t -> energy:float -> float
(** [transmission ?steps b ~energy] is the quantum-mechanical transmission
    probability of an electron of the given energy [J]. The electron mass
    outside the barrier is the free mass; inside it is [b.m_eff]. [steps]
    defaults to 400. Energies must make the incoming wave propagating
    (energy > 0 relative to the emitter band edge); returns 0 otherwise. *)
