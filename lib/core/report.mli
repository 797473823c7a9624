(** Shape checks and textual summaries: does each regenerated figure show
    the qualitative behaviour the paper reports? Used by [gnrflash_cli check]
    and by EXPERIMENTS.md. *)

type check = {
  name : string;
  passed : bool;
  detail : string;
}

val check_fig4 : unit -> check
(** Jin exceeds Jout by many orders of magnitude at t = 0. *)

val check_fig5 : unit -> check list
(** Jin monotone decreasing, Jout monotone increasing, saturation reached,
    currents converge at tsat. *)

val check_fig6 : unit -> check list
(** J increases with VGS for every GCR; higher-GCR curves lie strictly
    above lower ones. *)

val check_fig7 : unit -> check list
(** J increases with VGS for every XTO; thinner-oxide curves lie above;
    the XTO = 5 nm vs 7 nm gap is much larger than 7 nm vs 9 nm (the
    paper's "increases significantly below 7 nm"). *)

val check_fig8 : unit -> check list
(** Erase mirror of fig 6: |J| grows as VGS goes more negative, ordered by
    GCR. *)

val check_fig9 : unit -> check list
(** Erase mirror of fig 7. *)

val all_checks : unit -> check list
(** Every check above. *)

val render : check list -> string
(** Multi-line PASS/FAIL table. *)
