module U = L14_umbrella

let run () = Bad_l14.reached 1 + U.via_umbrella 2
