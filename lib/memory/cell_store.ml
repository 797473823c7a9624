[@@@gnrflash.hot]
module D = Gnrflash_device
module U = Gnrflash_units

(* Charge ids: the distinct charges the store's memos meet, as dense ints.
   [no_id] stands for a charge without one: no memo has a transition from
   it and its [ch_bit] is 2, so the fast paths fall through to the float. *)
let no_id = 0

type t = {
  device : D.Fgt.t;
  engine : D.Program_erase.engine; (* this store's pulse caches *)
  cfc : float; (* control-coupling capacitance, hoisted for O(1) readout *)
  qfg : float array;
  cls : int array; (* charge id of [qfg.(i)], or [no_id] *)
  fluence : float array;
  traps : float array;
  cycles : int array;
  broken : Bytes.t; (* '\000' intact, '\001' broken *)
  mutable slot_id : int array; (* hash slot -> id, [no_id] empty *)
  mutable ch_q : float array; (* id -> charge; half as long as [slot_id] *)
  mutable ch_bit : Bytes.t; (* id -> readout at 1 V, '\002' at [no_id] *)
  mutable ids : int; (* ids handed out, [no_id] included *)
}

let create ?(qfg = 0.) ?surrogate ~n device =
  if n < 1 then invalid_arg "Cell_store.create: n < 1";
  {
    device;
    engine = D.Program_erase.engine ?surrogate device;
    cfc = U.to_float (D.Capacitance.cfc_qty device.D.Fgt.caps);
    qfg = Array.make n qfg;
    cls = Array.make n no_id;
    fluence = Array.make n 0.;
    traps = Array.make n 0.;
    cycles = Array.make n 0;
    broken = Bytes.make n '\000';
    slot_id = Array.make 64 no_id;
    ch_q = Array.make 32 0.;
    ch_bit = Bytes.make 32 '\002';
    ids = 1;
  }

let length t = Array.length t.qfg
let device t = t.device
let engine t = t.engine
let qfg t i = t.qfg.(i)
let fluence t i = t.fluence.(i)
let cycles t i = t.cycles.(i)
let broken t i = Bytes.get t.broken i <> '\000'

(* Same float expression as Fgt.threshold_shift (the units layer is
   identities over float), with cfc read once at [create]. *)
let dvt t i = -.t.qfg.(i) /. t.cfc

let[@inline] bit_of_charge t q = if -.q /. t.cfc > 1.0 then 0 else 1

(* The readout at 1 V: the id's byte, or the division for [no_id]. *)
let[@inline] read_bit t i =
  let b = Char.code (Bytes.unsafe_get t.ch_bit t.cls.(i)) in
  if b < 2 then b else bit_of_charge t (Array.unsafe_get t.qfg i)

(* ---------- charge ids ---------- *)

let[@inline] probe_hash h =
  let h = (h lxor (h lsr 32)) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

(* Bit equality for non-NaN floats without boxing: equal floats are
   bit-equal except +0. / -0., which [1. /. x] tells apart (charges are
   never NaN — the solver returns a typed error instead). *)
(* lint: allow L2 — exact bit equality is the point: the id table must
   distinguish every distinct charge, an epsilon would alias ids *)
let[@inline] same_key k q = k = q && (k <> 0. || 1. /. k = 1. /. q)

let[@inline] find_slot t q =
  let mask = Array.length t.slot_id - 1 in
  let s = ref (probe_hash (Int64.to_int (Int64.bits_of_float q)) land mask) in
  while
    let id = Array.unsafe_get t.slot_id !s in
    id <> no_id && not (same_key (Array.unsafe_get t.ch_q id) q)
  do
    s := (!s + 1) land mask
  done;
  !s

(* Charge [q]'s id, made if new. *)
let rec intern t q =
  let s = find_slot t q in
  if t.slot_id.(s) <> no_id then t.slot_id.(s)
  else if t.ids < Array.length t.ch_q then begin
    t.ch_q.(t.ids) <- q;
    Bytes.set t.ch_bit t.ids (Char.chr (bit_of_charge t q));
    t.slot_id.(s) <- t.ids;
    t.ids <- t.ids + 1;
    t.ids - 1
  end
  else begin
    (* load 1/2 reached: double the ids and the slots, rehash *)
    t.ch_q <- Array.append t.ch_q (Array.make t.ids 0.);
    t.ch_bit <- Bytes.cat t.ch_bit (Bytes.make t.ids '\002');
    t.slot_id <- Array.make (2 * Array.length t.ch_q) no_id;
    for j = 1 to t.ids - 1 do
      t.slot_id.(find_slot t t.ch_q.(j)) <- j
    done;
    intern t q
  end

(* The id of a cell without one: its charge was set, or interned since. *)
let resolve t i =
  let c = Array.unsafe_get t.slot_id (find_slot t t.qfg.(i)) in
  t.cls.(i) <- c;
  c

(* The charge's id, if any, is resolved at the cell's next pulse. *)
let set_qfg t i q =
  t.qfg.(i) <- q;
  t.cls.(i) <- no_id

let view t i =
  let wear =
    { D.Reliability.fluence = t.fluence.(i); traps = t.traps.(i);
      cycles = t.cycles.(i); broken = broken t i }
  in
  { Cell.device = t.device; qfg = t.qfg.(i); wear }

let blit t ~src ~dst ~len =
  Array.blit t.qfg src t.qfg dst len;
  Array.blit t.cls src t.cls dst len;
  Array.blit t.fluence src t.fluence dst len;
  Array.blit t.traps src t.traps dst len;
  Array.blit t.cycles src t.cycles dst len;
  Bytes.blit t.broken src t.broken dst len

(* ---------- batched pulses ---------- *)

(* Transition columns of one pulse, indexed by the starting charge's id:
   the id after the pulse ([no_id] = not solved yet) and the wear deltas
   of Reliability.after_pulse. *)
type memo = {
  store : t;
  mutable next : int array;
  mutable dfl : float array; (* injected /. area *)
  mutable dtr : float array; (* trap_per_charge *. electrons_per_area *)
  mutable qbd : float array; (* breakdown fluence at this pulse's stress field *)
}

let memo store = { store; next = [||]; dfl = [||]; dtr = [||]; qbd = [||] }

let check_memo t m = if m.store != t then invalid_arg "Cell_store: memo of another store"

exception Pulse_error of string

(* A miss: one engine solve of cell [i] from [q0] to [q1], memoized as
   [q0]'s transition once the engine allows it (skipping a pulse before
   that would shift the surrogate build onto a different pulse). The
   wear deltas mirror Cell.apply_bias_pulse / Reliability.after_pulse
   term by term, so a replay is bit-identical to the record path. *)
let solve_cell t m ~rel ~pulse i =
  let q0 = t.qfg.(i) in
  let q1 =
    match D.Program_erase.apply_pulse t.engine ~qfg:q0 pulse with
    | Error e -> raise (Pulse_error (Gnrflash_resilience.Solver_error.to_string e))
    | Ok o -> o.D.Program_erase.qfg_after
  in
  (* both solver paths report |ΔQFG| exactly as this difference *)
  let injected = abs_float (q1 -. q0) in
  let area = t.device.D.Fgt.area in
  (* effective stress field at the pulse's midpoint charge *)
  let vgs = pulse.D.Program_erase.vgs in
  let field = abs_float (D.Fgt.tunnel_field t.device ~vgs ~qfg:(0.5 *. (q0 +. q1))) in
  let dfl = injected /. area in
  let electrons_per_area = injected /. area /. Gnrflash_physics.Constants.q in
  let dtr = rel.D.Reliability.trap_per_charge *. electrons_per_area in
  let qbd = D.Reliability.qbd rel ~field:(max field 1e6) in
  let fl = t.fluence.(i) +. dfl in
  t.fluence.(i) <- fl;
  t.traps.(i) <- t.traps.(i) +. dtr;
  t.cycles.(i) <- t.cycles.(i) + 1;
  if fl >= qbd then Bytes.set t.broken i '\001';
  t.qfg.(i) <- q1;
  t.cls.(i) <- no_id;
  if D.Program_erase.memoizable t.engine pulse then begin
    let c0 = intern t q0 and c1 = intern t q1 in
    if c0 >= Array.length m.next then begin
      let cap = Array.length t.ch_q and len = Array.length m.next in
      let grow a z = Array.append a (Array.make (cap - len) z) in
      m.next <- grow m.next no_id;
      m.dfl <- grow m.dfl 0.;
      m.dtr <- grow m.dtr 0.;
      m.qbd <- grow m.qbd 0.
    end;
    m.next.(c0) <- c1;
    m.dfl.(c0) <- dfl;
    m.dtr.(c0) <- dtr;
    m.qbd.(c0) <- qbd;
    t.cls.(i) <- c1
  end;
  read_bit t i

(* Replay the transition of id [c] on cell [i]: array loads only. *)
let[@inline] replay_cell t m c i =
  let nx = Array.unsafe_get m.next c in
  let fl = Array.unsafe_get t.fluence i +. Array.unsafe_get m.dfl c in
  Array.unsafe_set t.fluence i fl;
  Array.unsafe_set t.traps i (Array.unsafe_get t.traps i +. Array.unsafe_get m.dtr c);
  Array.unsafe_set t.cycles i (Array.unsafe_get t.cycles i + 1);
  if fl >= Array.unsafe_get m.qbd c then Bytes.unsafe_set t.broken i '\001';
  Array.unsafe_set t.cls i nx;
  Array.unsafe_set t.qfg i (Array.unsafe_get t.ch_q nx);
  Char.code (Bytes.unsafe_get t.ch_bit nx)

let[@inline] solved m c = c < Array.length m.next && Array.unsafe_get m.next c <> no_id

(* One pulse on cell [i], returning its readout bit at 1 V afterwards.
   Broken oxide fails first. *)
let[@inline] pulse_cell t m ~rel ~pulse i =
  if Bytes.get t.broken i <> '\000' then raise (Pulse_error "Cell: oxide broken");
  let c = Array.unsafe_get t.cls i in
  let c = if c <> no_id then c else resolve t i in
  if solved m c then replay_cell t m c i else solve_cell t m ~rel ~pulse i

(* [pulse_cell] on a bound-checked cell: an intact cell whose id the memo
   has solved replays at once, anything else takes [pulse_cell]'s checks
   (broken oxide, an id-less cell, a solve). *)
let[@inline] pulse_checked t m ~rel ~pulse i =
  let c = Array.unsafe_get t.cls i in
  if Bytes.unsafe_get t.broken i = '\000' && solved m c then replay_cell t m c i
  else pulse_cell t m ~rel ~pulse i

let apply_pulse_at ?(reliability = D.Reliability.default) t ~memo ~pulse i =
  check_memo t memo;
  match pulse_cell t memo ~rel:reliability ~pulse i with
  | _ -> Ok ()
  | exception Pulse_error e -> Error e

let verify_cell t m ~rel ~pulse ~max_pulses i =
  let p = ref 0 in
  let b = ref (read_bit t i) in
  while !b = 1 && !p < max_pulses do
    b := pulse_cell t m ~rel ~pulse i;
    incr p
  done;
  !p

let program_verify ?(reliability = D.Reliability.default) t ~memo ~pulse
    ~max_pulses i =
  check_memo t memo;
  verify_cell t memo ~rel:reliability ~pulse ~max_pulses i

let erase_round ?(reliability = D.Reliability.default) t ~memo ~pulse ~lo ~hi =
  check_memo t memo;
  if lo <= hi && (lo < 0 || hi >= length t) then
    invalid_arg "Cell_store.erase_round: range out of the store";
  let zeros = ref 0 in
  for i = lo to hi do
    if pulse_checked t memo ~rel:reliability ~pulse i = 0 then incr zeros
  done;
  !zeros

(* ---------- the program/erase run kernel ---------- *)

type pe_readout = { mutable vt_programmed : float; mutable vt_erased : float }

let pe_readout () = { vt_programmed = 0.; vt_erased = 0. }

(* The neutral threshold of the default readout, read once. *)
let vt0 = D.Readout.default.D.Readout.vt0

(* Cell.For_testing.effective_vt over the store's columns, at the default
   readout config: Readout.threshold_voltage (vt0 plus
   Fgt.threshold_shift, the [dvt] expression) plus Reliability.vt_drift,
   operation for operation. *)
let[@inline] effective_vt t ~rel i =
  vt0 +. (-.Array.unsafe_get t.qfg i /. t.cfc)
  +. (rel.D.Reliability.dvt_per_trap *. Array.unsafe_get t.traps i)

(* Cell [i] is intact at an id [a] with [a -> b] in [pm] and [b -> a] in
   [em]: every later cycle replays the same two transitions. *)
let[@inline] settled t pm em i =
  Bytes.unsafe_get t.broken i = '\000'
  &&
  let a = Array.unsafe_get t.cls i in
  solved pm a
  &&
  let b = Array.unsafe_get pm.next a in
  b < Array.length em.next && Array.unsafe_get em.next b = a

(* Cycles of a settled cell, [n] done so far, until [cycles] are done or a
   window closes: [replay_cell] twice and [effective_vt] twice per cycle,
   operation for operation, on the two transitions' deltas, the two
   charges and the two threshold bases [vt0 +. (-.q /. cfc)] held in
   locals ([effective_vt] parses as [base +. dvt_per_trap *. traps]). The
   wear columns are written back on exit. A program pulse that breaks the
   oxide leaves the cell at [b] and raises where the erase pulse would. An
   erase pulse that breaks it ends the run after its cycle; the next
   program pulse, outside this loop, raises. Returns the cycles done. *)
let settled_run t pm em ~rel ~window_min ~cycles i out n =
  let a = Array.unsafe_get t.cls i in
  let b = Array.unsafe_get pm.next a in
  let dfl_p = Array.unsafe_get pm.dfl a and dtr_p = Array.unsafe_get pm.dtr a in
  let qbd_p = Array.unsafe_get pm.qbd a in
  let dfl_e = Array.unsafe_get em.dfl b and dtr_e = Array.unsafe_get em.dtr b in
  let qbd_e = Array.unsafe_get em.qbd b in
  let k = rel.D.Reliability.dvt_per_trap in
  let base_a = vt0 +. (-.Array.unsafe_get t.ch_q a /. t.cfc) in
  let base_b = vt0 +. (-.Array.unsafe_get t.ch_q b /. t.cfc) in
  let fl = ref (Array.unsafe_get t.fluence i) and tr = ref (Array.unsafe_get t.traps i) in
  let cy = ref (Array.unsafe_get t.cycles i) and n = ref n in
  let vp = ref out.vt_programmed and ve = ref out.vt_erased in
  (* 0 running, 1 stopped at [a], 2 stopped at [a] broken, 3 stopped at [b] broken *)
  let stop = ref 0 in
  while !stop = 0 do
    let f = !fl +. dfl_p in
    tr := !tr +. dtr_p;
    vp := base_b +. (k *. !tr);
    if f >= qbd_p then begin
      fl := f;
      cy := !cy + 1;
      stop := 3
    end
    else begin
      let f = f +. dfl_e in
      fl := f;
      tr := !tr +. dtr_e;
      cy := !cy + 2;
      ve := base_a +. (k *. !tr);
      n := !n + 1;
      if f >= qbd_e then stop := 2
      else if !vp -. !ve < window_min || !n >= cycles then stop := 1
    end
  done;
  Array.unsafe_set t.fluence i !fl;
  Array.unsafe_set t.traps i !tr;
  Array.unsafe_set t.cycles i !cy;
  out.vt_programmed <- !vp;
  out.vt_erased <- !ve;
  if !stop >= 2 then Bytes.unsafe_set t.broken i '\001';
  if !stop = 3 then begin
    Array.unsafe_set t.cls i b;
    Array.unsafe_set t.qfg i (Array.unsafe_get t.ch_q b);
    raise (Pulse_error "Cell: oxide broken")
  end;
  !n

let run_cycles t ~reliability:rel ~pmemo ~ememo ~program ~erase ~window_min ~cycles i out =
  check_memo t pmemo;
  check_memo t ememo;
  if i < 0 || i >= length t then invalid_arg "Cell_store.run_cycles: cell";
  let n = ref 0 and closed = ref false in
  while (not !closed) && !n < cycles do
    if settled t pmemo ememo i then begin
      n := settled_run t pmemo ememo ~rel ~window_min ~cycles i out !n;
      closed := out.vt_programmed -. out.vt_erased < window_min
    end
    else begin
      ignore (pulse_cell t pmemo ~rel ~pulse:program i : int);
      let vp = effective_vt t ~rel i in
      out.vt_programmed <- vp;
      ignore (pulse_cell t ememo ~rel ~pulse:erase i : int);
      let ve = effective_vt t ~rel i in
      out.vt_erased <- ve;
      n := !n + 1;
      closed := vp -. ve < window_min
    end
  done;
  !n

(* ---------- word-level kernels ---------- *)

type word_outcome = {
  mutable slowest : int;
  mutable total : int;
  mutable timed_out : bool;
  mutable word : int;
}

let word_outcome () = { slowest = 0; total = 0; timed_out = false; word = 0 }

let[@inline] sense_word t ~base ~bits =
  let w = ref 0 in
  for i = bits - 1 downto 0 do
    w := (!w lsl 1) lor read_bit t (base + i)
  done;
  !w

let sense t ~base ~bits =
  if bits >= Sys.int_size then invalid_arg "Cell_store.sense: bits";
  sense_word t ~base ~bits

(* Bit positions by de Bruijn index: the top 5 bits of the 32-bit product
   [b * 0x077CB531] differ for each power of two [b] below 2^32. *)
let debruijn32 =
  "\000\001\028\002\029\014\024\003\030\022\020\015\025\017\004\008\
   \031\027\013\023\021\019\016\007\026\012\018\006\011\005\010\009"

(* The index of the lowest set bit of [x] (non-zero, non-negative),
   without a branch: looked up in the low 32 bits, or in the high ones
   when the low are all 0 (the only case where [low - 1] has its sign
   bit set, which then shifts by 32). *)
let[@inline] lowest_bit x =
  let hi = (((x land 0xFFFF_FFFF) - 1) lsr (Sys.int_size - 1)) lsl 5 in
  let y = x lsr hi in
  let b = y land -y in
  hi + Char.code (String.unsafe_get debruijn32 ((b * 0x077C_B531 land 0xFFFF_FFFF) lsr 27))

(* The per-bit loop of an embedded word program, run here so no call
   crosses a module boundary per cell. The word is the caller's [sensed]
   readout: a target-1 bit reading 0 is a timeout, and the target-0 bits
   reading 1 are the only ones visited, in ascending order (pulse order is
   what the engine's surrogate promotions and a budget's evaluation count
   see). Each is snapshotted, pulsed (it is known to read 1) and verified,
   so its last readout is its bit of [out.word]. A failed pulse restores
   that bit's pre-program cell from the unboxed snapshot (the record path
   only wrote a cell back after a clean verify loop) and stops the word. *)
let program_word ?(reliability = D.Reliability.default) t ~memo ~pulse
    ~max_pulses ~base ~bits ~sensed ~data out =
  if bits >= Sys.int_size then invalid_arg "Cell_store.program_word: bits";
  check_memo t memo;
  if bits > 0 && (base < 0 || base + bits > length t) then
    invalid_arg "Cell_store.program_word: word out of range";
  let mask = if bits > 0 then (1 lsl bits) - 1 else 0 in
  let timed_out = ref (data land lnot sensed land mask <> 0) in
  let total = ref 0 and slowest = ref 0 and word = ref sensed in
  let sel = ref (lnot data land sensed land mask) in
  while !sel <> 0 do
    let lowest = !sel land - !sel in
    let idx = base + lowest_bit lowest in
    sel := !sel lxor lowest;
    (* the word's cells were bound-checked above *)
    let q0 = Array.unsafe_get t.qfg idx and c0 = Array.unsafe_get t.cls idx in
    let fl0 = Array.unsafe_get t.fluence idx and tr0 = Array.unsafe_get t.traps idx in
    let cy0 = Array.unsafe_get t.cycles idx and bk0 = Bytes.unsafe_get t.broken idx in
    let p = ref 0 and b = ref 1 in
    (try
       while !b = 1 && !p < max_pulses do
         b := pulse_checked t memo ~rel:reliability ~pulse idx;
         incr p
       done
     with Pulse_error _ as failed ->
       t.qfg.(idx) <- q0;
       t.cls.(idx) <- c0;
       t.fluence.(idx) <- fl0;
       t.traps.(idx) <- tr0;
       t.cycles.(idx) <- cy0;
       Bytes.set t.broken idx bk0;
       out.slowest <- !slowest;
       out.total <- !total;
       out.word <- !word;
       raise failed);
    if !b = 1 then timed_out := true else word := !word lxor lowest;
    total := !total + !p;
    if !p > !slowest then slowest := !p
  done;
  out.slowest <- !slowest;
  out.total <- !total;
  out.timed_out <- !timed_out;
  out.word <- !word

let all_erased t ~lo ~hi =
  let i = ref lo in
  while !i <= hi && read_bit t !i = 1 do
    incr i
  done;
  !i > hi

let apply_pulse_range ?reliability t ~memo ~pulse ~lo ~hi =
  match erase_round ?reliability t ~memo ~pulse ~lo ~hi with
  | _ -> Ok ()
  | exception Pulse_error e -> Error e

let fold_digest t f h0 =
  let fbits x = Int64.to_int (Int64.bits_of_float x) in
  let h = ref h0 in
  for i = 0 to Array.length t.qfg - 1 do
    h := f !h (fbits t.qfg.(i));
    h := f !h (fbits t.fluence.(i));
    h := f !h (fbits t.traps.(i));
    h := f !h t.cycles.(i);
    h := f !h (if Bytes.get t.broken i <> '\000' then 1 else 0)
  done;
  !h

module For_testing = struct
  let traps t i = t.traps.(i)
  let apply_pulse_at = apply_pulse_at

  let set t i (c : Cell.t) =
    set_qfg t i c.Cell.qfg;
    let w = c.Cell.wear in
    t.fluence.(i) <- w.D.Reliability.fluence;
    t.traps.(i) <- w.D.Reliability.traps;
    t.cycles.(i) <- w.D.Reliability.cycles;
    Bytes.set t.broken i (if w.D.Reliability.broken then '\001' else '\000')

  let charge_id t i = t.cls.(i)
  let id_of_charge t q = t.slot_id.(find_slot t q)
  let ids t = t.ids - 1 (* [no_id] is not a charge *)
end
