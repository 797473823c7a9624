let phi_b_ev = 3.2
let m_ox_rel = 0.42
let gcr_values = [ 0.45; 0.50; 0.55; 0.60 ]
let xto_values_nm = [ 5.; 6.; 7.; 8.; 9. ]
let xto_default_nm = 5.
let gcr_default = 0.6
let vgs_program = 15.
let vgs_program_range = (8., 17.)
let vgs_program_range_xto = (10., 17.)
let vgs_erase_range = (-17., -8.)
let sweep_points = 60

let device () = Gnrflash_device.Fgt.paper_default

let fn () = Gnrflash_quantum.Fn.coefficients ~phi_b_ev ~m_ox_rel
