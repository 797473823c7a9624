(* Re-export so users of the umbrella library can say [Gnrflash.Resilience]
   without depending on the low-level gnrflash_resilience library directly. *)
module Solver_error = Gnrflash_resilience.Solver_error
module Budget = Gnrflash_resilience.Budget
