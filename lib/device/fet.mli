(** Compact I–V model of the MLGNR-channel read transistor — a
    virtual-source / top-of-the-barrier hybrid: exponential subthreshold
    conduction below VT, Landauer-limited saturation above it, with a
    smooth transition. Produces the ID–VG transfer curves whose lateral
    shift by ΔVT is how the stored state is actually sensed. *)

type params = {
  vt0 : float;           (** neutral threshold [V] *)
  ss_mv_dec : float;     (** subthreshold swing [mV/decade], ≥ 60 at 300 K *)
  i_off : float;         (** leakage floor at VGS = VT − 10·SS [A] *)
  g_on : float;          (** on-state transconductance-limited conductance [S] *)
  v_sat : float;         (** drain saturation voltage scale [V] *)
}

val of_channel : Gnrflash_materials.Mlgnr.t -> params
(** Derive the on-conductance from the MLGNR stack's Landauer limit
    (channels at EF ≈ 1 eV) and use a near-ideal 70 mV/dec swing and
    VT0 = 1 V. *)

val default : params
(** {!of_channel} on the 3-layer 12-AGNR stack, VT0 = 1 V. *)

val drain_current : params -> vgs:float -> vds:float -> float
(** ID(VGS, VDS) ≥ 0: subthreshold exponential for [vgs < vt], saturating
    linear conduction above, continuous at the joint. *)

val transfer_curve :
  params -> dvt:float -> vds:float -> vgs:float array -> (float * float) array
(** ID–VG points for a cell whose threshold is shifted by [dvt] — the
    programmed/erased pair of these curves is the read window. *)

val read_window :
  params -> dvt_programmed:float -> vread:float -> vds:float -> float
(** On/off current ratio between erased and programmed states at the read
    point (clamped to the leakage floor). *)

val subthreshold_swing : params -> vds:float -> float
(** Numerically extracted swing [mV/dec] a few decades below the on-state
    joint — tests pin it to the configured value. *)
