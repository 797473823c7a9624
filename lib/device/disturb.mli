(** Program disturb: while one cell on a word line is programmed, inhibited
    neighbours see a reduced bias (V_pass or VGS/2 style) that still drives
    a small FN current. Over many program operations the disturbance
    accumulates into a threshold drift that can flip an erased cell. *)

type config = {
  v_disturb : float;       (** bias seen by the inhibited cell [V] *)
  pulse_width : float;     (** s, per neighbouring program operation *)
}

val half_select : vgs_program:float -> pulse_width:float -> config
(** The classic VGS/2 inhibit scheme. *)

val qfg_after_events :
  ?config:config -> Fgt.t -> qfg0:float -> events:int -> (float, string) result
(** Stored charge of the victim cell after [events] neighbouring program
    pulses — the feedback quantity an array model writes back into the
    victim so accumulated disturb becomes visible to later reads. *)
