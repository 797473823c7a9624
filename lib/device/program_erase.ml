module Tel = Gnrflash_telemetry.Telemetry
module Err = Gnrflash_resilience.Solver_error

type error = Err.t

type pulse = {
  vgs : float;
  duration : float;
}

type outcome = {
  qfg_before : float;
  qfg_after : float;
  dvt_after : float;
  injected_charge : float;
  saturated : bool;
}

let default_program_pulse = { vgs = 15.; duration = 1e-3 }
let default_erase_pulse = { vgs = -15.; duration = 1e-3 }

(* ---------- the pulse engine ---------- *)

(* Pulse trains (endurance cycling, program-verify loops, a served
   device's lifetime) re-solve the same transient over and over. An engine
   is the caller-owned state that exploits this, in precedence order:

   - surrogate tables: an in-box pulse is served from a certified
     Pulse_surrogate table for its vgs ([surrogate/{hit,fallback,build}]).
     A table is built only once its vgs has been asked for more than
     [requests_before_build] times, so a caller that pulses a device once
     or twice never pays a build it would not amortize;
   - exact replay: a pulse whose (vgs, duration, qfg) key repeats
     bit-for-bit returns the memoized outcome without integrating
     ([program_erase/pulse_replay]). The solve is a pure function of the
     key, so the replay is bit-identical to a re-solve;
   - step-size warm start: the first accepted step of the previous
     same-polarity solve seeds the next solve's [h0], skipping the
     cold-start step-size search ([transient/warm_start_hit]).

   An engine's answers are a function of the pulses it has served, in
   order, and of nothing else: nothing is shared between engines. *)

type slot =
  | Ready of Pulse_surrogate.t
  | Unusable  (* build failed for a non-budget reason; don't re-ask *)

type engine = {
  device : Fgt.t;
  surrogate : bool;
  tables : (int64, slot) Hashtbl.t;  (* keyed by the bits of vgs *)
  pending : (int64, int) Hashtbl.t;  (* promotion counters per vgs *)
  replays : (float * float * float, outcome) Hashtbl.t;
  h_last : (bool, float) Hashtbl.t;  (* keyed by polarity, vgs >= 0 *)
}

let engine ?(surrogate = true) device =
  {
    device;
    surrogate;
    tables = Hashtbl.create 8;
    pending = Hashtbl.create 8;
    replays = Hashtbl.create 32;
    h_last = Hashtbl.create 2;
  }

let requests_before_build = 2
let max_tables = 32

(* Limit cycles are short (a program/erase pair per distinct charge state);
   cap the table well above that and reset wholesale if it ever fills. *)
let max_replay_entries = 64

let table_for e ~vgs =
  let key = Int64.bits_of_float vgs in
  match Hashtbl.find_opt e.tables key with
  | Some (Ready t) -> Some t
  | Some Unusable -> None
  | None ->
    let asked = 1 + Option.value ~default:0 (Hashtbl.find_opt e.pending key) in
    if asked <= requests_before_build then begin
      Hashtbl.replace e.pending key asked;
      None
    end
    else begin
      Hashtbl.remove e.pending key;
      if Hashtbl.length e.tables >= max_tables then Hashtbl.reset e.tables;
      match Pulse_surrogate.build e.device ~vgs with
      | Ok t ->
        Hashtbl.replace e.tables key (Ready t);
        Some t
      | Error { Err.kind = Err.Budget_exhausted _; _ } ->
        (* transient starvation: leave the slot empty and keep the vgs
           promoted, so its next, possibly better-funded, consult retries *)
        Hashtbl.replace e.pending key requests_before_build;
        None
      | Error err ->
        Tel.count ("surrogate/unusable/" ^ Err.label err);
        Hashtbl.replace e.tables key Unusable;
        None
    end

let in_box e pulse =
  Pulse_surrogate.in_box e.device ~vgs:pulse.vgs ~duration:pulse.duration

let surrogate_response e ~qfg pulse =
  let served =
    if not (in_box e pulse) then None
    else
      Option.bind (table_for e ~vgs:pulse.vgs) (fun t ->
          Pulse_surrogate.query t ~qfg ~duration:pulse.duration)
  in
  Tel.count (if Option.is_some served then "surrogate/hit" else "surrogate/fallback");
  served

(* With the surrogate off, or once the pulse is outside the box or its vgs
   slot is settled (Ready or Unusable), a consult can no longer count,
   build or reset anything, so a caller may skip it and replay a
   remembered outcome without moving any later table build. *)
let memoizable e pulse =
  pulse.duration > 0.
  && ((not e.surrogate)
      || (not (in_box e pulse))
      || Hashtbl.mem e.tables (Int64.bits_of_float pulse.vgs))

let apply_pulse e ~qfg pulse =
  if pulse.duration <= 0. then
    Error
      (Err.make ~solver:"Program_erase.apply_pulse"
         (Err.Invalid_input "duration <= 0"))
  else Tel.span "program_erase/pulse" @@ fun () ->
    Tel.count "program_erase/pulse";
    let sur = if e.surrogate then surrogate_response e ~qfg pulse else None in
    match sur with
    | Some r ->
      if r.Pulse_surrogate.saturated then Tel.count "program_erase/saturated";
      let qfg_after = r.Pulse_surrogate.qfg_after in
      Ok
        {
          qfg_before = qfg;
          qfg_after;
          dvt_after = Fgt.threshold_shift e.device ~qfg:qfg_after;
          injected_charge = abs_float (qfg_after -. qfg);
          saturated = r.Pulse_surrogate.saturated;
        }
    | None ->
    let key = (pulse.vgs, pulse.duration, qfg) in
    match Hashtbl.find_opt e.replays key with
    | Some outcome ->
      Tel.count "program_erase/pulse_replay";
      if outcome.saturated then Tel.count "program_erase/saturated";
      Ok outcome
    | None ->
      let h0 = Hashtbl.find_opt e.h_last (pulse.vgs >= 0.) in
      if Option.is_some h0 then Tel.count "transient/warm_start_hit";
      (match
         Transient.pulse ?h0 ~qfg0:qfg e.device ~vgs:pulse.vgs ~duration:pulse.duration
       with
       | Error err -> Error err
       | Ok r ->
         if Option.is_some r.Transient.tsat then Tel.count "program_erase/saturated";
         let outcome =
           {
             qfg_before = qfg;
             qfg_after = r.Transient.qfg_final;
             dvt_after = r.Transient.dvt_final;
             injected_charge = abs_float (r.Transient.qfg_final -. qfg);
             saturated = Option.is_some r.Transient.tsat;
           }
         in
         Option.iter (Hashtbl.replace e.h_last (pulse.vgs >= 0.)) r.Transient.h_first;
         if Hashtbl.length e.replays >= max_replay_entries then
           Hashtbl.reset e.replays;
         Hashtbl.replace e.replays key outcome;
         Ok outcome)
