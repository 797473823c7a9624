module Tel = Gnrflash_telemetry.Telemetry
module Splitmix = Gnrflash_prng.Splitmix

type mode = Fail_every of int | Nan_every of int

type plan = {
  mode : mode;
  seed : int;
  limit : int option;
  mutable evals : int;
  mutable fired : int;
}

let slot : plan option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let active () = Option.is_some (Domain.DLS.get slot)

let outcome () =
  match Domain.DLS.get slot with
  | None -> `Pass
  | Some p ->
    let i = p.evals in
    p.evals <- i + 1;
    let capped =
      match p.limit with Some l -> p.fired >= l | None -> false
    in
    if capped then `Pass
    else
      let rate = match p.mode with Fail_every n | Nan_every n -> n in
      let h = Splitmix.hash ~seed:p.seed ~index:i in
      if h mod rate <> 0 then `Pass
      else begin
        p.fired <- p.fired + 1;
        Tel.count "resilience/fault_injected";
        match p.mode with Fail_every _ -> `Fail i | Nan_every _ -> `Nan
      end

module For_testing = struct
  let with_faults ?(seed = 0) ?limit mode f =
    (match mode with
    | Fail_every n | Nan_every n ->
      if n < 1 then invalid_arg "Fault.with_faults: rate < 1");
    let prev = Domain.DLS.get slot in
    Domain.DLS.set slot (Some { mode; seed; limit; evals = 0; fired = 0 });
    Fun.protect ~finally:(fun () -> Domain.DLS.set slot prev) f

  let injected () =
    match Domain.DLS.get slot with None -> 0 | Some p -> p.fired
end
