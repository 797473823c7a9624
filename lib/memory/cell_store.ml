[@@@gnrflash.hot]
module D = Gnrflash_device
module U = Gnrflash_units

type t = {
  device : D.Fgt.t;
  engine : D.Program_erase.engine; (* this store's pulse caches *)
  cfc : float; (* control-coupling capacitance, hoisted for O(1) readout *)
  n : int;
  qfg : float array;
  fluence : float array;
  traps : float array;
  cycles : int array;
  broken : Bytes.t; (* '\000' intact, '\001' broken *)
}

let create ?(qfg = 0.) ?surrogate ~n device =
  if n < 1 then invalid_arg "Cell_store.create: n < 1";
  {
    device;
    engine = D.Program_erase.engine ?surrogate device;
    cfc = U.to_float (D.Capacitance.cfc_qty device.D.Fgt.caps);
    n;
    qfg = Array.make n qfg;
    fluence = Array.make n 0.;
    traps = Array.make n 0.;
    cycles = Array.make n 0;
    broken = Bytes.make n '\000';
  }

let length t = t.n
let device t = t.device
let engine t = t.engine
let qfg t i = t.qfg.(i)
let fluence t i = t.fluence.(i)
let traps t i = t.traps.(i)
let cycles t i = t.cycles.(i)
let broken t i = Bytes.get t.broken i <> '\000'
let set_qfg t i q = t.qfg.(i) <- q

(* Same float expression as Fgt.threshold_shift (the units layer is
   identities over float), with cfc read once at [create]. *)
let dvt t i = -.t.qfg.(i) /. t.cfc

let bit ?(dvt_threshold = 1.0) t i =
  if -.t.qfg.(i) /. t.cfc > dvt_threshold then 0 else 1

let view t i =
  {
    Cell.device = t.device;
    qfg = t.qfg.(i);
    wear =
      {
        D.Reliability.fluence = t.fluence.(i);
        traps = t.traps.(i);
        cycles = t.cycles.(i);
        broken = broken t i;
      };
  }

let set t i (c : Cell.t) =
  t.qfg.(i) <- c.Cell.qfg;
  let w = c.Cell.wear in
  t.fluence.(i) <- w.D.Reliability.fluence;
  t.traps.(i) <- w.D.Reliability.traps;
  t.cycles.(i) <- w.D.Reliability.cycles;
  Bytes.set t.broken i (if w.D.Reliability.broken then '\001' else '\000')

(* ---------- batched pulses ---------- *)

type entry = {
  e_qfg_after : float;
  e_dfluence : float; (* injected /. area *)
  e_dtraps : float; (* trap_per_charge *. electrons_per_area *)
  e_qbd : float; (* breakdown fluence at this pulse's stress field *)
}

(* Open-addressed flat-column memo keyed by the starting charge: probing
   mixes the charge's raw bits inline (no boxed key, no C call, no bucket
   cells), and a hit replays the deltas and the readout bit straight out
   of the columns — the hot loop's zero-allocation path. *)
type memo = {
  mutable m_occ : Bytes.t; (* '\000' empty, '\001' occupied *)
  mutable m_keys : float array; (* starting charges *)
  mutable m_qafter : float array;
  mutable m_dfl : float array;
  mutable m_dtr : float array;
  mutable m_qbd : float array;
  mutable m_bit : Bytes.t; (* [bit] after the pulse: '\000' or '\001' *)
  mutable m_mask : int; (* capacity - 1, capacity a power of two *)
  mutable m_used : int;
}

let memo_cap0 = 64

let memo () =
  {
    m_occ = Bytes.make memo_cap0 '\000';
    m_keys = Array.make memo_cap0 0.;
    m_qafter = Array.make memo_cap0 0.;
    m_dfl = Array.make memo_cap0 0.;
    m_dtr = Array.make memo_cap0 0.;
    m_qbd = Array.make memo_cap0 0.;
    m_bit = Bytes.make memo_cap0 '\000';
    m_mask = memo_cap0 - 1;
    m_used = 0;
  }

let[@inline] probe_hash h =
  let h = (h lxor (h lsr 32)) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

(* Bit equality for non-NaN floats without boxing: equal floats are
   bit-equal except +0. / -0., which [1. /. x] tells apart (charges are
   never NaN — the solver returns a typed error instead). *)
(* lint: allow L2 — exact bit equality is the point: the memo key must
   distinguish every distinct charge, an epsilon would alias entries *)
let[@inline] same_key k q = k = q && (k <> 0. || 1. /. k = 1. /. q)

let[@inline] find_slot m q =
  let i = ref (probe_hash (Int64.to_int (Int64.bits_of_float q)) land m.m_mask) in
  while
    Bytes.unsafe_get m.m_occ !i <> '\000'
    && not (same_key (Array.unsafe_get m.m_keys !i) q)
  do
    i := (!i + 1) land m.m_mask
  done;
  !i

let rec memo_add m q ~qfg_after ~dfl ~dtr ~qbd ~bit =
  if 2 * (m.m_used + 1) > m.m_mask + 1 then begin
    (* keep load factor under 1/2: rehash into twice the capacity *)
    let old_occ = m.m_occ
    and old_keys = m.m_keys
    and old_qa = m.m_qafter
    and old_dfl = m.m_dfl
    and old_dtr = m.m_dtr
    and old_qbd = m.m_qbd
    and old_bit = m.m_bit in
    let cap = 2 * (m.m_mask + 1) in
    m.m_occ <- Bytes.make cap '\000';
    m.m_keys <- Array.make cap 0.;
    m.m_qafter <- Array.make cap 0.;
    m.m_dfl <- Array.make cap 0.;
    m.m_dtr <- Array.make cap 0.;
    m.m_qbd <- Array.make cap 0.;
    m.m_bit <- Bytes.make cap '\000';
    m.m_mask <- cap - 1;
    m.m_used <- 0;
    for i = 0 to Bytes.length old_occ - 1 do
      if Bytes.get old_occ i <> '\000' then
        memo_add m old_keys.(i) ~qfg_after:old_qa.(i) ~dfl:old_dfl.(i)
          ~dtr:old_dtr.(i) ~qbd:old_qbd.(i)
          ~bit:(Char.code (Bytes.get old_bit i))
    done;
    memo_add m q ~qfg_after ~dfl ~dtr ~qbd ~bit
  end
  else begin
    let i = find_slot m q in
    Bytes.set m.m_occ i '\001';
    m.m_keys.(i) <- q;
    m.m_qafter.(i) <- qfg_after;
    m.m_dfl.(i) <- dfl;
    m.m_dtr.(i) <- dtr;
    m.m_qbd.(i) <- qbd;
    Bytes.set m.m_bit i (Char.chr bit);
    m.m_used <- m.m_used + 1
  end

(* The per-cell deltas of one Cell.apply_bias_pulse for starting charge
   [q0] whose pulse left the charge at [qfg_after]. The expressions mirror
   Cell.apply_bias_pulse / Reliability.after_pulse term by term so
   replaying [fluence +. e_dfluence] etc. is bit-identical to the record
   path. *)
let entry_of t ~rel ~pulse q0 qfg_after =
  (* both solver paths report |ΔQFG| exactly as this difference *)
  let injected = abs_float (qfg_after -. q0) in
  let area = t.device.D.Fgt.area in
  (* effective stress field at the pulse's midpoint charge *)
  let q_mid = 0.5 *. (q0 +. qfg_after) in
  let field =
    abs_float
      (D.Fgt.tunnel_field t.device ~vgs:pulse.D.Program_erase.vgs ~qfg:q_mid)
  in
  let dfluence = injected /. area in
  let electrons_per_area = injected /. area /. Gnrflash_physics.Constants.q in
  {
    e_qfg_after = qfg_after;
    e_dfluence = dfluence;
    e_dtraps = rel.D.Reliability.trap_per_charge *. electrons_per_area;
    e_qbd = D.Reliability.qbd rel ~field:(max field 1e6);
  }

exception Pulse_error of string

(* A memo miss: one engine solve from the cell's charge, memoized when
   the engine allows it. Returns the readout bit after the pulse. *)
let solve_cell t m ~rel ~pulse i =
  let q0 = t.qfg.(i) in
  match D.Program_erase.apply_pulse t.engine ~qfg:q0 pulse with
  | Error e -> raise (Pulse_error (Gnrflash_resilience.Solver_error.to_string e))
  | Ok o ->
    let e = entry_of t ~rel ~pulse q0 o.D.Program_erase.qfg_after in
    let fl = t.fluence.(i) +. e.e_dfluence in
    t.fluence.(i) <- fl;
    t.traps.(i) <- t.traps.(i) +. e.e_dtraps;
    t.cycles.(i) <- t.cycles.(i) + 1;
    if fl >= e.e_qbd then Bytes.set t.broken i '\001';
    t.qfg.(i) <- e.e_qfg_after;
    let b = bit t i in
    (* skipping a pulse before the engine allows it would shift the
       surrogate build onto a different pulse *)
    if D.Program_erase.memoizable t.engine pulse then
      memo_add m q0 ~qfg_after:e.e_qfg_after ~dfl:e.e_dfluence
        ~dtr:e.e_dtraps ~qbd:e.e_qbd ~bit:b;
    b

(* One pulse on cell [i], returning its readout bit at 1 V afterwards.
   Broken oxide fails before any lookup; a hit replays the columns with
   no solve and no allocation. [replay] is false under a fault plan: a
   memo must never mask a fault path, so every pulse reaches the
   engine. *)
let[@inline] pulse_cell t m ~rel ~replay ~pulse i =
  if Bytes.get t.broken i <> '\000' then raise (Pulse_error "Cell: oxide broken");
  let s = find_slot m (Array.unsafe_get t.qfg i) in
  if replay && Bytes.unsafe_get m.m_occ s <> '\000' then begin
    let fl = Array.unsafe_get t.fluence i +. Array.unsafe_get m.m_dfl s in
    Array.unsafe_set t.fluence i fl;
    Array.unsafe_set t.traps i
      (Array.unsafe_get t.traps i +. Array.unsafe_get m.m_dtr s);
    Array.unsafe_set t.cycles i (Array.unsafe_get t.cycles i + 1);
    if fl >= Array.unsafe_get m.m_qbd s then Bytes.unsafe_set t.broken i '\001';
    Array.unsafe_set t.qfg i (Array.unsafe_get m.m_qafter s);
    Char.code (Bytes.unsafe_get m.m_bit s)
  end
  else solve_cell t m ~rel ~pulse i

let replays_allowed () = not (Gnrflash_resilience.Fault.active ())

let apply_pulse_at ?(reliability = D.Reliability.default) t ~memo ~pulse i =
  match pulse_cell t memo ~rel:reliability ~replay:(replays_allowed ()) ~pulse i with
  | _ -> Ok ()
  | exception Pulse_error e -> Error e

let verify_cell t m ~rel ~replay ~pulse ~max_pulses i =
  let p = ref 0 in
  let b = ref (bit t i) in
  while !b = 1 && !p < max_pulses do
    b := pulse_cell t m ~rel ~replay ~pulse i;
    incr p
  done;
  !p

let program_verify ?(reliability = D.Reliability.default) t ~memo ~pulse
    ~max_pulses i =
  verify_cell t memo ~rel:reliability ~replay:(replays_allowed ()) ~pulse
    ~max_pulses i

let erase_round ?(reliability = D.Reliability.default) t ~memo ~pulse ~lo ~hi =
  let replay = replays_allowed () in
  let zeros = ref 0 in
  for i = lo to hi do
    if pulse_cell t memo ~rel:reliability ~replay ~pulse i = 0 then incr zeros
  done;
  !zeros

(* ---------- word-level kernels ---------- *)

type word_outcome = {
  mutable slowest : int;
  mutable total : int;
  mutable timed_out : bool;
}

let word_outcome () = { slowest = 0; total = 0; timed_out = false }

(* The per-bit loop of an embedded word program, run here so no call
   crosses a module boundary per cell. A failed pulse restores that bit's
   pre-program cell from the unboxed snapshot (the record path only wrote
   a cell back after a clean verify loop) and stops the word. *)
let program_word ?(reliability = D.Reliability.default) t ~memo ~pulse
    ~max_pulses ~base ~bits ~data out =
  if bits >= Sys.int_size then invalid_arg "Cell_store.program_word: bits";
  let replay = replays_allowed () in
  out.slowest <- 0;
  out.total <- 0;
  out.timed_out <- false;
  for i = 0 to bits - 1 do
    let idx = base + i in
    if (data lsr i) land 1 = 0 then begin
      let q0 = t.qfg.(idx) and fl0 = t.fluence.(idx) and tr0 = t.traps.(idx) in
      let cy0 = t.cycles.(idx) and bk0 = Bytes.get t.broken idx in
      let p =
        try verify_cell t memo ~rel:reliability ~replay ~pulse ~max_pulses idx
        with Pulse_error _ as failed ->
          t.qfg.(idx) <- q0;
          t.fluence.(idx) <- fl0;
          t.traps.(idx) <- tr0;
          t.cycles.(idx) <- cy0;
          Bytes.set t.broken idx bk0;
          raise failed
      in
      if bit t idx = 1 then out.timed_out <- true;
      out.total <- out.total + p;
      if p > out.slowest then out.slowest <- p
    end
    else if bit t idx = 0 then out.timed_out <- true
  done

let zeros t ~lo ~hi =
  let z = ref 0 in
  for i = lo to hi do
    if bit t i = 0 then incr z
  done;
  !z

let sense t ~base ~bits =
  if bits >= Sys.int_size then invalid_arg "Cell_store.sense: bits";
  let w = ref 0 in
  for i = bits - 1 downto 0 do
    w := (!w lsl 1) lor bit t (base + i)
  done;
  !w

let apply_pulse_range ?reliability t ~memo ~pulse ~lo ~hi =
  match erase_round ?reliability t ~memo ~pulse ~lo ~hi with
  | _ -> Ok ()
  | exception Pulse_error e -> Error e

let fold_digest t f h0 =
  let fbits x = Int64.to_int (Int64.bits_of_float x) in
  let h = ref h0 in
  for i = 0 to t.n - 1 do
    h := f !h (fbits t.qfg.(i));
    h := f !h (fbits t.fluence.(i));
    h := f !h (fbits t.traps.(i));
    h := f !h t.cycles.(i);
    h := f !h (if Bytes.get t.broken i <> '\000' then 1 else 0)
  done;
  !h
