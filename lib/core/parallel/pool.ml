(* Process-lifetime domain pool behind [Sweep].

   Why a pool: BENCH showed per-call [Domain.spawn] costing more than the
   parallel win on this container's small work items (Monte-Carlo at 0.41x
   serial under --jobs 2). Spawning is ~1 ms per domain; a pool amortizes
   it across every [Sweep] call in the process.

   Safety argument for the shared state:
   - [task.next] is the only cross-domain coordination on the hot path: an
     atomic fetch-and-add handing out chunk indices (work stealing at chunk
     granularity);
   - result slots are written by exactly one domain (the one that claimed
     the chunk); a worker publishes its writes by incrementing [task.left]
     under [mutex], and the submitter reads [left] under the same mutex
     before touching the results — mutex ordering makes the writes visible;
   - the first exception is parked in [task.err] via compare-and-set and
     re-raised on the submitting domain after the task drains;
   - [busy] serializes submissions: a nested or concurrent [run] (e.g. a
     sweep inside a mapped function) degrades to the serial loop, which is
     bit-identical by construction and cannot deadlock the pool. *)

module Telemetry = Gnrflash_telemetry.Telemetry

type task = {
  work : int -> unit;
  next : int Atomic.t;
  nchunks : int;
  err : exn option Atomic.t;
  prefix : string;  (* submitter's telemetry context, adopted by workers *)
  mutable slots : int;  (* worker claims still available, under [mutex] *)
  mutable joined : int; (* workers that claimed the task, under [mutex] *)
  mutable left : int;   (* workers that finished the task, under [mutex] *)
}

type state = {
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable current : task option;
  mutable gen : int;  (* bumped per task so sleeping workers wake exactly once *)
  mutable domains : unit Domain.t list;
  mutable size : int;
  mutable shutdown : bool;
  mutable busy : bool;
}

let make_state () =
  {
    mutex = Mutex.create ();
    work_ready = Condition.create ();
    work_done = Condition.create ();
    current = None;
    gen = 0;
    domains = [];
    size = 0;
    shutdown = false;
    busy = false;
  }

(* A [ref] rather than a flat global so [For_testing.quiesce] can swap in a
   fresh state atomically with respect to later submissions. *)
let state = ref (make_state ())

let spawned_total = Atomic.make 0
let spawned () = Atomic.get spawned_total

(* OCaml caps live domains well below 128; leave headroom for user domains. *)
let max_workers = 30

let drain t =
  let continue = ref true in
  while !continue do
    let chunk = Atomic.fetch_and_add t.next 1 in
    if chunk >= t.nchunks || Option.is_some (Atomic.get t.err) then continue := false
    else
      try t.work chunk
      with e -> ignore (Atomic.compare_and_set t.err None (Some e))
  done

let worker_loop st =
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock st.mutex;
    while st.gen = !seen && not st.shutdown do
      Condition.wait st.work_ready st.mutex
    done;
    if st.shutdown then begin
      running := false;
      Mutex.unlock st.mutex
    end
    else begin
      seen := st.gen;
      match st.current with
      | Some t when t.slots > 0 ->
        t.slots <- t.slots - 1;
        t.joined <- t.joined + 1;
        Mutex.unlock st.mutex;
        (* adopt the submitter's span context so parallel work is keyed
           exactly like the serial equivalent, and flush the domain-local
           telemetry once per task — not per chunk — after draining *)
        (try
           Fun.protect ~finally:Telemetry.flush_local (fun () ->
               Telemetry.with_context_prefix t.prefix (fun () -> drain t))
         with e -> ignore (Atomic.compare_and_set t.err None (Some e)));
        Mutex.lock st.mutex;
        t.left <- t.left + 1;
        Condition.broadcast st.work_done;
        Mutex.unlock st.mutex
      | _ -> Mutex.unlock st.mutex
    end
  done

(* Joining the pool at process exit keeps the runtime shutdown orderly.
   An [Atomic] so concurrent first submissions from different domains race
   benignly: exactly one wins the compare-and-set and installs the hook. *)
let exit_hook_installed = Atomic.make false

(* Under [st.mutex]: tell the workers to exit and hand back their domains
   for the caller to join once it has released the mutex. *)
let stop_locked st =
  st.shutdown <- true;
  Condition.broadcast st.work_ready;
  let ds = st.domains in
  st.domains <- [];
  st.size <- 0;
  ds

let shutdown_state st =
  Mutex.lock st.mutex;
  let ds = stop_locked st in
  Mutex.unlock st.mutex;
  List.iter Domain.join ds

let ensure_workers st want =
  if Atomic.compare_and_set exit_hook_installed false true then
    (* the hook runs once, at process exit, after every sweep has
       drained; [state] swaps only in For_testing.quiesce *)
    at_exit (fun () -> shutdown_state !state);
  while st.size < want do
    let d = Domain.spawn (fun () -> worker_loop st) in
    st.domains <- d :: st.domains;
    st.size <- st.size + 1;
    Atomic.incr spawned_total
  done

let run_serial ~nchunks work =
  for ci = 0 to nchunks - 1 do
    work ci
  done

let run ~helpers ~nchunks work =
  if nchunks > 0 then begin
    let st = !state in
    let helpers = min helpers (min max_workers (nchunks - 1)) in
    if helpers <= 0 then run_serial ~nchunks work
    else begin
      Mutex.lock st.mutex;
      if st.busy || st.shutdown then begin
        (* nested submission (a sweep inside a mapped function) or a pool
           mid-shutdown: the serial loop is bit-identical and deadlock-free *)
        Mutex.unlock st.mutex;
        run_serial ~nchunks work
      end
      else begin
        st.busy <- true;
        ensure_workers st helpers;
        let t =
          {
            work;
            next = Atomic.make 0;
            nchunks;
            err = Atomic.make None;
            prefix = Telemetry.context_prefix ();
            slots = helpers;
            joined = 0;
            left = 0;
          }
        in
        st.current <- Some t;
        st.gen <- st.gen + 1;
        Condition.broadcast st.work_ready;
        Mutex.unlock st.mutex;
        (* participate rather than idle-wait *)
        drain t;
        Mutex.lock st.mutex;
        while t.left < t.joined do
          Condition.wait st.work_done st.mutex
        done;
        (* claims happen under this same mutex hold, so once [left = joined]
           and [current] is cleared no worker can still touch the task *)
        st.current <- None;
        st.busy <- false;
        Mutex.unlock st.mutex;
        match Atomic.get t.err with Some e -> raise e | None -> ()
      end
    end
  end

module For_testing = struct
  let size () =
    let st = !state in
    Mutex.protect st.mutex (fun () -> st.size)

  let quiesce () =
    let st = !state in
    Mutex.lock st.mutex;
    if st.busy then begin
      Mutex.unlock st.mutex;
      false
    end
    else begin
      let ds = stop_locked st in
      Mutex.unlock st.mutex;
      List.iter Domain.join ds;
      state := make_state ();
      true
    end
end
