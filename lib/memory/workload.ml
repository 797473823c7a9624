module Sm = Gnrflash_prng.Splitmix

type op =
  | Write of { page : int; data : int array }
  | Read of { page : int }

type pattern =
  | Sequential
  | Uniform
  | Zipf of float

(* Per-op deterministic randomness: every draw is a pure function of
   (seed, op index, draw slot), so traces depend only on the seed — never
   on evaluation order, chunking or job count. *)
let unit_float h = float_of_int h *. 0x1p-62 (* hash is 62-bit *)

let zipf_cdf ~exponent ~n =
  (* inverse-CDF table over ranks 1..n with P(k) ∝ k^-exponent *)
  let weights = Array.init n (fun i -> (float_of_int (i + 1)) ** (-.exponent)) in
  let total = Array.fold_left ( +. ) 0. weights in
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  Array.iteri
    (fun i w ->
       acc := !acc +. w;
       cdf.(i) <- !acc /. total)
    weights;
  cdf

(* The first rank whose CDF reaches [u]. Typed on floats so the compare
   is a float compare rather than a polymorphic one on boxed values, and
   inlined so [u] is not boxed to be passed in. *)
let[@inline] inv_cdf (cdf : float array) (u : float) =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* [cdf] is the Zipf table, empty for the other patterns *)
let page_of ~pattern ~cdf ~pages ~index draw =
  match pattern with
  | Sequential -> index mod pages
  | Uniform -> draw mod pages
  | Zipf _ -> inv_cdf cdf (unit_float draw)

(* [n] data bits, bit [s] from draw slot [first + s] of op stream [h] *)
let bits ~h ~first n =
  let data = Array.make n 0 in
  for s = 0 to n - 1 do
    data.(s) <- Sm.hash ~seed:h ~index:(first + s) land 1
  done;
  data

let validate_pattern ~caller = function
  | Zipf exponent when exponent <= 0. ->
    invalid_arg (caller ^ ": zipf exponent <= 0")
  | _ -> ()

let cdf_of_pattern ~pages = function
  | Zipf exponent -> zipf_cdf ~exponent ~n:pages
  | Sequential | Uniform -> [||]

let generate ~seed pattern ~pages ~strings ~ops ~read_fraction =
  if pages < 1 || strings < 1 || ops < 0 then invalid_arg "Workload.generate: bad sizes";
  if read_fraction < 0. || read_fraction > 1. then
    invalid_arg "Workload.generate: read_fraction out of [0, 1]";
  validate_pattern ~caller:"Workload.generate" pattern;
  let cdf = cdf_of_pattern ~pages pattern in
  let op_at i =
    let h = Sm.hash ~seed ~index:i in
    let page = page_of ~pattern ~cdf ~pages ~index:i (Sm.hash ~seed:h ~index:0) in
    if unit_float (Sm.hash ~seed:h ~index:1) < read_fraction then Read { page }
    else Write { page; data = bits ~h ~first:2 strings }
  in
  (* explicit back-to-front build: op order is the index order by
     construction, with no reliance on List.init's application order *)
  let rec build i acc = if i < 0 then acc else build (i - 1) (op_at i :: acc) in
  build (ops - 1) []

(* ------------------------------------------------------------------ *)
(* Command streams for the command-level memory service               *)
(* ------------------------------------------------------------------ *)

type host_cmd =
  | Cmd_write of { lpn : int; data : int array; suspend : bool }
  | Cmd_read of { lpn : int }
  | Cmd_trim of { lpn : int }

type command_profile = {
  pattern : pattern;
  pages : int;
  strings : int;
  read_fraction : float;
  trim_fraction : float;
  suspend_fraction : float;
}

let default_profile =
  {
    pattern = Zipf 1.1;
    pages = 256;
    strings = 16;
    read_fraction = 0.3;
    trim_fraction = 0.05;
    suspend_fraction = 0.02;
  }

let commands ~seed ~profile =
  let { pattern; pages; strings; read_fraction; trim_fraction; suspend_fraction } =
    profile
  in
  if pages < 1 || strings < 1 then invalid_arg "Workload.commands: bad sizes";
  if read_fraction < 0. || trim_fraction < 0. || read_fraction +. trim_fraction > 1.
  then invalid_arg "Workload.commands: fractions out of range";
  if suspend_fraction < 0. || suspend_fraction > 1. then
    invalid_arg "Workload.commands: suspend_fraction out of [0, 1]";
  validate_pattern ~caller:"Workload.commands" pattern;
  let cdf = cdf_of_pattern ~pages pattern in
  fun i ->
    let h = Sm.hash ~seed ~index:i in
    let lpn = page_of ~pattern ~cdf ~pages ~index:i (Sm.hash ~seed:h ~index:0) in
    let u = unit_float (Sm.hash ~seed:h ~index:1) in
    if u < read_fraction then Cmd_read { lpn }
    else if u < read_fraction +. trim_fraction then Cmd_trim { lpn }
    else
      Cmd_write
        {
          lpn;
          data = bits ~h ~first:3 strings;
          suspend = unit_float (Sm.hash ~seed:h ~index:2) < suspend_fraction;
        }

let generate_commands ~seed ~profile ~ops =
  if ops < 0 then invalid_arg "Workload.generate_commands: ops < 0";
  Array.init ops (commands ~seed ~profile)

(* ------------------------------------------------------------------ *)
(* Trace digests                                                      *)
(* ------------------------------------------------------------------ *)

(* FNV-1a-style folding over ints, truncated to OCaml's non-negative
   range: stable, order-sensitive, cheap — for golden-trace pinning and
   cross-tier identity checks, not cryptography. *)
let digest_fold h v = ((h lxor v) * 0x100000001B3) land max_int

let digest_empty = 0x1505

let digest_op h = function
  | Read { page } -> digest_fold (digest_fold h 1) page
  | Write { page; data } ->
    Array.fold_left digest_fold (digest_fold (digest_fold h 2) page) data

let digest_cmd h = function
  | Cmd_read { lpn } -> digest_fold (digest_fold h 1) lpn
  | Cmd_trim { lpn } -> digest_fold (digest_fold h 2) lpn
  | Cmd_write { lpn; data; suspend } ->
    let h = digest_fold (digest_fold h 3) lpn in
    let h = digest_fold h (if suspend then 1 else 0) in
    Array.fold_left digest_fold h data

module For_testing = struct
  let digest_ops ops = List.fold_left digest_op digest_empty ops
  let digest_commands cmds = Array.fold_left digest_cmd digest_empty cmds
end

type replay_stats = {
  writes : int;
  reads : int;
  erase_cycles : int;
  failed_verifies : int;
  max_fluence : float;
  broken_cells : int;
}

let page_holds_charge block ~page =
  let dirty = ref false in
  for s = 0 to Nand_block.strings block - 1 do
    if Nand_block.dvt block ~page ~string_:s > 0.5 then dirty := true
  done;
  !dirty

let replay block ops =
  let rec go writes reads erases fails = function
    | [] ->
      let _, max_fluence, broken = Nand_block.wear_summary block in
      Ok
        {
          writes;
          reads;
          erase_cycles = erases;
          failed_verifies = fails;
          max_fluence;
          broken_cells = broken;
        }
    | Read { page } :: rest ->
      ignore (Nand_block.read_page block ~page : int array);
      go writes (reads + 1) erases fails rest
    | Write { page; data } :: rest ->
      let needs_erase = page_holds_charge block ~page in
      let prep = if needs_erase then Nand_block.erase_block block else Ok () in
      (match Result.bind prep (fun () -> Nand_block.program_page block ~page ~data) with
       | Error e -> Error e
       | Ok () ->
         let ok = Nand_block.verify_page block ~page ~data in
         go (writes + 1) reads
           (erases + if needs_erase then 1 else 0)
           (fails + if ok then 0 else 1)
           rest)
  in
  go 0 0 0 0 ops
