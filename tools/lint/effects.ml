(* Per-identifier and per-type effect judgments. Kept separate from the
   call-graph walker so the tables are trivially testable and the rule
   engine can reuse the name canonicalization. *)

let normalize_name s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '!' then incr i
    else if !i + 1 < n && s.[!i] = '_' && s.[!i + 1] = '_' then begin
      Buffer.add_char b '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let resolve aliases name =
  match String.index_opt name '.' with
  | None -> (
      match Hashtbl.find_opt aliases name with Some c -> c | None -> name)
  | Some i -> (
      let head = String.sub name 0 i in
      let rest = String.sub name (i + 1) (String.length name - i - 1) in
      match Hashtbl.find_opt aliases head with
      | Some c -> c ^ "." ^ rest
      | None -> name)

type alloc_class = Hazard of string | Synchronized | Opaque

let classify_alloc = function
  | "Stdlib.ref" -> Hazard "ref"
  | "Stdlib.Hashtbl.create" -> Hazard "Hashtbl.t"
  | "Stdlib.Buffer.create" -> Hazard "Buffer.t"
  | "Stdlib.Queue.create" -> Hazard "Queue.t"
  | "Stdlib.Stack.create" -> Hazard "Stack.t"
  | "Stdlib.Array.make" | "Stdlib.Array.init" | "Stdlib.Array.create_float"
  | "Stdlib.Array.make_matrix" ->
      Hazard "array"
  | "Stdlib.Bytes.create" | "Stdlib.Bytes.make" -> Hazard "bytes"
  | "Stdlib.Atomic.make" | "Stdlib.Mutex.create" | "Stdlib.Condition.create"
  | "Stdlib.Semaphore.Counting.make" | "Stdlib.Semaphore.Binary.make"
  | "Stdlib.Domain.DLS.new_key" ->
      Synchronized
  | _ -> Opaque

let write_arg = function
  | "Stdlib.:=" | "Stdlib.incr" | "Stdlib.decr" -> Some 0
  | "Stdlib.Hashtbl.add" | "Stdlib.Hashtbl.replace" | "Stdlib.Hashtbl.remove"
  | "Stdlib.Hashtbl.reset" | "Stdlib.Hashtbl.clear"
  | "Stdlib.Hashtbl.filter_map_inplace" ->
      Some 0
  | "Stdlib.Buffer.add_char" | "Stdlib.Buffer.add_string"
  | "Stdlib.Buffer.add_bytes" | "Stdlib.Buffer.add_substring"
  | "Stdlib.Buffer.add_subbytes" | "Stdlib.Buffer.add_buffer"
  | "Stdlib.Buffer.clear" | "Stdlib.Buffer.reset" | "Stdlib.Buffer.truncate" ->
      Some 0
  | "Stdlib.Array.set" | "Stdlib.Array.unsafe_set" | "Stdlib.Array.fill" ->
      Some 0
  | "Stdlib.Array.sort" | "Stdlib.Array.stable_sort" | "Stdlib.Array.blit" ->
      Some 1
  | "Stdlib.Bytes.set" | "Stdlib.Bytes.unsafe_set" | "Stdlib.Bytes.fill" ->
      Some 0
  | "Stdlib.Queue.add" | "Stdlib.Queue.push" -> Some 1
  | "Stdlib.Queue.pop" | "Stdlib.Queue.take" | "Stdlib.Queue.clear"
  | "Stdlib.Queue.transfer" ->
      Some 0
  | "Stdlib.Stack.push" -> Some 1
  | "Stdlib.Stack.pop" | "Stdlib.Stack.clear" -> Some 0
  | _ -> None

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let nondet_of id =
  if starts_with ~prefix:"Stdlib.Random.State." id then None
  else if starts_with ~prefix:"Stdlib.Random." id then
    Some ("the global Random PRNG (" ^ normalize_name id ^ ")")
  else
    match id with
    | "Unix.gettimeofday" | "Unix.time" ->
        Some ("the wall clock (" ^ id ^ ")")
    | "Stdlib.Sys.time" -> Some "the process clock (Sys.time)"
    | "Stdlib.Hashtbl.fold" | "Stdlib.Hashtbl.iter" ->
        Some
          ("hash-order dependent iteration ("
          ^ (match String.rindex_opt id '.' with
            | Some i ->
                "Hashtbl." ^ String.sub id (i + 1) (String.length id - i - 1)
            | None -> id)
          ^ ")")
    | _ -> None

let is_lock = function
  | "Stdlib.Mutex.lock" | "Stdlib.Mutex.try_lock" | "Stdlib.Mutex.protect" ->
      true
  | _ -> false

let is_physical_eq = function "Stdlib.==" | "Stdlib.!=" -> true | _ -> false

let is_boxed_type ty =
  match Types.get_desc ty with
  | Tarrow _ | Ttuple _ | Tobject _ | Tpackage _ -> true
  | Tconstr (p, _, _) ->
      not
        (Path.same p Predef.path_int
        || Path.same p Predef.path_bool
        || Path.same p Predef.path_char
        || Path.same p Predef.path_unit)
  | _ -> false

let ends_with ~suffix s =
  let ns = String.length s and nx = String.length suffix in
  ns >= nx && String.sub s (ns - nx) nx = suffix

let is_solver_error_name n =
  n = "Solver_error.t" || ends_with ~suffix:".Solver_error.t" n

let is_result_name n = n = "result" || ends_with ~suffix:".result" n

let sweep_fns = [ "map"; "mapi"; "init"; "map_list"; "grid" ]

let entry_of id =
  let under m short fns =
    List.find_map
      (fun f -> if id = m ^ "." ^ f then Some (short ^ "." ^ f) else None)
      fns
  in
  match
    List.find_map
      (fun m -> under m "Sweep" sweep_fns)
      [ "Gnrflash_parallel.Sweep"; "Gnrflash.Sweep" ]
  with
  | Some s -> Some s
  | None -> (
      match id with
      | "Gnrflash_parallel.Pool.run" -> Some "Pool.run"
      | _ -> None)

let is_dls_new_key id = id = "Stdlib.Domain.DLS.new_key"
