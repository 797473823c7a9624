module Tel = Gnrflash_telemetry.Telemetry

type t = {
  deadline : float option; (* absolute Unix time, or None *)
  max_evals : int option;
  evals : int Atomic.t;
  started : float;
}

(* lint: allow L9 — the wall-clock budget is intentionally nondeterministic
   in *when* it trips, but exhaustion surfaces as a typed Budget_exhausted
   error, never as a silently different numeric result *)
let now () = Unix.gettimeofday ()

let make ?wall_ms ?max_evals () =
  let started = now () in
  {
    deadline = Option.map (fun ms -> started +. (ms /. 1000.)) wall_ms;
    max_evals;
    evals = Atomic.make 0;
    started;
  }

let elapsed_s t = now () -. t.started

let exhausted t =
  (match t.max_evals with
  | Some cap -> Atomic.get t.evals > cap
  | None -> false)
  ||
  match t.deadline with Some d -> now () > d | None -> false

(* Process-global so the ambient budget crosses library boundaries and is
   visible from Sweep worker domains without any per-domain plumbing. *)
let slot : t option Atomic.t = Atomic.make None

let with_budget t f =
  let prev = Atomic.get slot in
  Atomic.set slot (Some t);
  Fun.protect ~finally:(fun () -> Atomic.set slot prev) f

let note_evals n =
  match Atomic.get slot with
  | None -> ()
  | Some t -> ignore (Atomic.fetch_and_add t.evals n)

let error t ~solver =
  Tel.count "resilience/budget_exhausted";
  Solver_error.make ~solver
    (Solver_error.Budget_exhausted
       { evals = Atomic.get t.evals; elapsed_s = elapsed_s t })

let check ~solver () =
  match Atomic.get slot with
  | None -> Ok ()
  | Some t -> if exhausted t then Error (error t ~solver) else Ok ()

let check_exn ~solver () =
  match Atomic.get slot with
  | None -> ()
  | Some t ->
    if exhausted t then raise (Solver_error.Solver_failure (error t ~solver))

module For_testing = struct
  let evals t = Atomic.get t.evals
  let current () = Atomic.get slot
end
