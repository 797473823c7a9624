(* Multi-process sharding tier under [Sweep].

   A sharded sweep forks [shards - 1] worker processes (each one a copy of
   the running binary, e.g. gnrflash_cli), hands each a contiguous slice of
   the index space, and reads one length-prefixed Marshal frame per worker
   back over a pipe. The parent computes slice 0 itself while the children
   run, then assembles slices in shard order — so the combined output is
   the same elements, in the same order, produced by the same pure calls as
   the serial path.

   Fork discipline: forking an OCaml 5 process with live domains is unsafe
   (the child inherits runtime bookkeeping for domains that do not exist
   there), so the in-process pool is quiesced first; if it is busy (a
   nested sweep), sharding degrades to the in-process tier instead.

   Framing: 8-byte big-endian payload length, then Marshal bytes. A dead
   worker (EOF before a full frame, or a nonzero wait status) surfaces as
   [Solver_error.Worker_failed] — never a hang: the parent owns the read
   ends, reads shards in order, and reaps every child before raising. *)

module Telemetry = Gnrflash_telemetry.Telemetry
module Err = Gnrflash_resilience.Solver_error

type 'b payload =
  | P_ok of 'b array * Telemetry.snapshot option
  | P_solver_error of Err.t
  | P_exn of string

(* Set (only) in forked children, before the slice runs. *)
let worker_slot : int option ref = ref None

let solver = "Sweep.shard"

let fail_worker ~shard detail =
  Err.fail ~solver (Err.Worker_failed { shard; detail })

(* ---- framing ---- *)

let max_frame = 1 lsl 30

let write_all fd buf =
  let n = Bytes.length buf in
  let pos = ref 0 in
  while !pos < n do
    pos := !pos + Unix.write fd buf !pos (n - !pos)
  done

let write_frame fd payload =
  let body = Marshal.to_bytes payload [] in
  let hdr = Bytes.create 8 in
  Bytes.set_int64_be hdr 0 (Int64.of_int (Bytes.length body));
  write_all fd hdr;
  write_all fd body

(* [None] on EOF before [len] bytes arrived. *)
let read_exactly fd len =
  let buf = Bytes.create len in
  let pos = ref 0 in
  let eof = ref false in
  while (not !eof) && !pos < len do
    match Unix.read fd buf !pos (len - !pos) with
    | 0 -> eof := true
    | k -> pos := !pos + k
  done;
  if !eof then None else Some buf

let read_frame ~shard fd =
  match read_exactly fd 8 with
  | None -> None
  | Some hdr ->
    let len = Int64.to_int (Bytes.get_int64_be hdr 0) in
    if len < 0 || len > max_frame then
      fail_worker ~shard (Printf.sprintf "bad frame length %d" len);
    (match read_exactly fd len with
     | None -> None
     | Some body -> Some body)

(* ---- slicing ---- *)

let slices ~k ~n =
  let base = n / k and rem = n mod k in
  let lo = ref 0 in
  Array.init k (fun s ->
      let len = base + if s < rem then 1 else 0 in
      let here = !lo in
      lo := here + len;
      (here, len))

(* ---- child side ---- *)

let child_main ~shard ~prefix ~lo ~len ~run_slice wfd =
  worker_slot := Some shard;
  Pool.reset_after_fork ();
  (* drop inherited metrics so the snapshot shipped back is this worker's
     contribution only — the parent absorbs it additively *)
  Telemetry.reset ();
  let payload =
    match
      Telemetry.with_context_prefix prefix (fun () -> run_slice ~lo ~len)
    with
    | ys ->
      let snap =
        if Telemetry.is_enabled () then begin
          Telemetry.flush_local ();
          Some (Telemetry.snapshot ())
        end
        else None
      in
      P_ok (ys, snap)
    | exception Err.Solver_failure e -> P_solver_error e
    | exception e -> P_exn (Printexc.to_string e)
  in
  (try
     write_frame wfd payload;
     Unix.close wfd
   with _ -> ());
  (* _exit: no at_exit, no duplicate flushing of inherited stdio buffers *)
  Unix._exit 0

(* ---- parent side ---- *)

let reap ~kill children from_shard =
  Array.iteri
    (fun i (pid, rfd) ->
       if i + 1 >= from_shard then begin
         (try Unix.close rfd with _ -> ());
         if kill then (try Unix.kill pid Sys.sigkill with _ -> ());
         (try ignore (Unix.waitpid [] pid) with _ -> ())
       end)
    children

let wait_status pid =
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> None
  | Unix.WEXITED c -> Some (Printf.sprintf "exited with code %d" c)
  | Unix.WSIGNALED sg -> Some (Printf.sprintf "killed by signal %d" sg)
  | Unix.WSTOPPED sg -> Some (Printf.sprintf "stopped by signal %d" sg)

let collect ~children ~shard (pid, rfd) =
  let fail detail =
    (try Unix.close rfd with _ -> ());
    (try ignore (Unix.waitpid [] pid) with _ -> ());
    reap ~kill:true children (shard + 1);
    fail_worker ~shard detail
  in
  match read_frame ~shard rfd with
  | exception (Err.Solver_failure _ as e) ->
    (try Unix.close rfd with _ -> ());
    (try ignore (Unix.waitpid [] pid) with _ -> ());
    reap ~kill:true children (shard + 1);
    raise e
  | None ->
    let status =
      match wait_status pid with None -> "exited with code 0" | Some s -> s
    in
    (try Unix.close rfd with _ -> ());
    reap ~kill:true children (shard + 1);
    fail_worker ~shard (Printf.sprintf "no result frame (%s)" status)
  | Some body ->
    Unix.close rfd;
    (match wait_status pid with
     | Some status ->
       reap ~kill:true children (shard + 1);
       fail_worker ~shard status
     | None ->
       (match (Marshal.from_bytes body 0 : _ payload) with
        | exception _ -> fail "malformed result frame"
        | P_ok (ys, snap) ->
          Option.iter Telemetry.absorb snap;
          ys
        | P_solver_error e ->
          reap ~kill:true children (shard + 1);
          raise (Err.Solver_failure e)
        | P_exn msg ->
          reap ~kill:true children (shard + 1);
          fail_worker ~shard ("uncaught exception: " ^ msg)))

(* [Pool.quiesce] joins every pool domain, but [Domain.join] returns once
   the worker's OCaml body has signalled termination — a beat before the
   runtime releases the domain's slot. A fork in that window still raises
   [Failure "Unix.fork may not be called while other domains were
   created"]. The condition is transient by construction (the domain is
   already on its way out and nothing respawns it), so retry briefly;
   [None] after the budget means the caller should degrade in-process. *)
let fork_after_quiesce () =
  let rec go tries =
    match Unix.fork () with
    | pid -> Some pid
    | exception Failure _ when tries > 0 ->
      Unix.sleepf 0.001;
      go (tries - 1)
    | exception Failure _ -> None
  in
  go 200

let run ~shards ~n ~run_slice =
  if shards < 1 then invalid_arg "Sweep: shards < 1";
  if shards = 1 || n <= 1 then run_slice ~lo:0 ~len:n
  else if not (Pool.quiesce ()) then
    (* nested inside an in-process sweep: forking mid-task is unsafe, and
       the in-process tier is bit-identical anyway *)
    run_slice ~lo:0 ~len:n
  else begin
    let k = min shards n in
    let prefix = Telemetry.context_prefix () in
    let sl = slices ~k ~n in
    (* spawn shards 1..k-1; each child closes the read ends it inherited *)
    let spawn shard =
      let rfd, wfd = Unix.pipe () in
      match fork_after_quiesce () with
      | Some 0 ->
        Unix.close rfd;
        let lo, len = sl.(shard) in
        child_main ~shard ~prefix ~lo ~len ~run_slice wfd
      | Some pid ->
        Unix.close wfd;
        Ok (pid, rfd)
      | None ->
        (try Unix.close rfd with _ -> ());
        (try Unix.close wfd with _ -> ());
        Error ()
    in
    let rec spawn_all acc shard =
      if shard = k then Some (Array.of_list (List.rev acc))
      else
        match spawn shard with
        | Ok c -> spawn_all (c :: acc) (shard + 1)
        | Error () ->
          (* fork stayed unavailable: reap what was already spawned and let
             the caller fall back to the (bit-identical) in-process tier *)
          List.iter
            (fun (pid, rfd) ->
               (try Unix.close rfd with _ -> ());
               (try Unix.kill pid Sys.sigkill with _ -> ());
               (try ignore (Unix.waitpid [] pid) with _ -> ()))
            acc;
          None
    in
    match spawn_all [] 1 with
    | None -> run_slice ~lo:0 ~len:n
    | Some children ->
    (* earlier children leak into later ones via inherited read fds; that
       only duplicates read ends, so EOF detection (write-end refcount) is
       unaffected — no extra bookkeeping needed *)
    let parts = Array.make k [||] in
    (match
       let lo, len = sl.(0) in
       run_slice ~lo ~len
     with
     | ys -> parts.(0) <- ys
     | exception e ->
       reap ~kill:true children 1;
       raise e);
    Array.iteri
      (fun i child -> parts.(i + 1) <- collect ~children ~shard:(i + 1) child)
      children;
    Array.concat (Array.to_list parts)
  end

module For_testing = struct
  let in_worker () = Option.is_some !worker_slot
  let worker_index () = !worker_slot
end
