module D = Gnrflash_device

type config = {
  verify_low : float;
  verify_high : float;
  soft_vgs : float;
  soft_width : float;
  max_pulses : int;
}

let default =
  {
    verify_low = -0.5;
    verify_high = 0.5;
    soft_vgs = 10.;
    soft_width = 1e-6;
    max_pulses = 32;
  }

let is_over_erased ?(config = default) c = Cell.dvt c < config.verify_low

let recover ?(config = default) engine c =
  if not (is_over_erased ~config c) then Ok (c, 0)
  else begin
    let pulse = { D.Program_erase.vgs = config.soft_vgs; duration = config.soft_width } in
    let rec loop c pulses =
      if pulses >= config.max_pulses then Error "Over_erase.recover: pulse budget exhausted"
      else
        match Cell.program ~pulse engine c with
        | Error e -> Error e
        | Ok c ->
          let dvt = Cell.dvt c in
          if dvt > config.verify_high then Error "Over_erase.recover: overshoot"
          else if dvt >= config.verify_low then Ok (c, pulses + 1)
          else loop c (pulses + 1)
    in
    loop c 0
  end
