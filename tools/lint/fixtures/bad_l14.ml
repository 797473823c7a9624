(* L14 fixture: [reached] is called by the fixture root, [via_umbrella]
   only through the [L14_umbrella] re-export, [internal_only] only by
   [reached], [via_for_testing] only by the exempt [For_testing];
   [behind_alias] only by the unexported [hidden] that [For_testing]
   re-exports as [let hidden = hidden]; [unreached] by nothing,
   [only_from_peer] only by a module no root reaches. *)

let internal_only x = x * 2
let reached x = internal_only x + 1
let via_umbrella x = x - 1
let unreached x = x * x
let only_from_peer x = x + 7
let kept x = x
let via_for_testing x = x + 3
let behind_alias x = x + 5
let hidden x = behind_alias x

module For_testing = struct
  let probe x = via_for_testing x
  let hidden = hidden
end
