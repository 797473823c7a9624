module D = Gnrflash_device

type config = {
  bits : int;
  dvt_spacing : float;
  dvt_first : float;
  placement : float;
  ispp : D.Ispp.config;
}

let default_mlc =
  {
    bits = 2;
    dvt_spacing = 1.5;
    dvt_first = 1.5;
    placement = 0.25;
    ispp = { D.Ispp.default with D.Ispp.v_step = 0.25; pulse_width = 2e-6 };
  }

let default_tlc =
  {
    bits = 3;
    dvt_spacing = 0.8;
    dvt_first = 1.0;
    placement = 0.15;
    ispp = { D.Ispp.default with D.Ispp.v_step = 0.1; pulse_width = 1e-6 };
  }

let levels c = 1 lsl c.bits

let target_dvt c ~level =
  if level < 0 || level >= levels c then invalid_arg "Mlc.target_dvt: level out of range";
  if level = 0 then 0.
  else c.dvt_first +. (float_of_int (level - 1) *. c.dvt_spacing)

let gray_encode n = n lxor (n lsr 1)

let level_to_bits c level =
  let g = gray_encode level in
  Array.init c.bits (fun i -> (g lsr (c.bits - 1 - i)) land 1)

module For_testing = struct
  let gray_decode g =
    let rec go acc g = if g = 0 then acc else go (acc lxor g) (g lsr 1) in
    go 0 g

  let bits_to_level c bits =
    if Array.length bits <> c.bits then invalid_arg "Mlc.bits_to_level: length mismatch";
    let g = Array.fold_left (fun acc b -> (acc lsl 1) lor (b land 1)) 0 bits in
    gray_decode g
end

let program_level ?(config = default_mlc) engine ~qfg0 ~level =
  if level < 0 || level >= levels config then Error "Mlc.program_level: level out of range"
  else if level = 0 then Ok (qfg0, 0)
  else begin
    let target = target_dvt config ~level in
    let ispp = { config.ispp with D.Ispp.target_dvt = target } in
    match D.Ispp.run ~config:ispp engine ~qfg0 with
    | Error e -> Error e
    | Ok r ->
      if not r.D.Ispp.passed then Error "Mlc.program_level: ISPP failed to verify"
      else begin
        match List.rev r.D.Ispp.steps with
        | [] -> Error "Mlc.program_level: no pulses recorded"
        | last :: _ ->
          let placed = last.D.Ispp.dvt in
          (* over-programming past the window is a placement failure; the
             undershoot side is prevented by the verify loop itself *)
          if placed > target +. config.dvt_spacing then
            Error "Mlc.program_level: overshot the level window"
          else Ok (last.D.Ispp.qfg, r.D.Ispp.pulses_used)
      end
  end

let read_level ?(config = default_mlc) device ~qfg =
  let dvt = D.Fgt.threshold_shift device ~qfg in
  let n = levels config in
  (* reference levels at midpoints between adjacent targets *)
  let rec classify level =
    if level >= n - 1 then level
    else begin
      let here = target_dvt config ~level in
      let next = target_dvt config ~level:(level + 1) in
      let reference = 0.5 *. (here +. next) in
      if dvt < reference then level else classify (level + 1)
    end
  in
  classify 0

let read_margin c ~level =
  let n = levels c in
  let here = target_dvt c ~level in
  let margins = ref infinity in
  if level > 0 then begin
    let below = target_dvt c ~level:(level - 1) in
    margins := min !margins (here -. (0.5 *. (here +. below)))
  end;
  if level < n - 1 then begin
    let above = target_dvt c ~level:(level + 1) in
    margins := min !margins ((0.5 *. (here +. above)) -. here)
  end;
  !margins
