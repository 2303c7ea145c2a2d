type kind = Rocket | Boom

let name = function Rocket -> "rocket" | Boom -> "boom"

(* BOOM's single-thread advantage over Rocket on compute-dense loops,
   fitted to the paper's 2,670x / 1,130x ResNet50 speedup pair. *)
let boom_speedup = 2670. /. 1130.

let scaled kind cycles =
  match kind with
  | Rocket -> cycles
  | Boom -> int_of_float (ceil (float_of_int cycles /. boom_speedup))

let issue_cycles = function Rocket -> 2 | Boom -> 1

(* Rocket cycles/MAC by kernel class; see the .mli for the fit targets. *)
let conv_cpm = 28.0
let matmul_cpm = 1.7
let depthwise_cpm = 22.0
let elementwise_cpe = 4.0
let pooling_cpe_per_window = 1.6

let of_f x = int_of_float (ceil x)

let conv_macs_cycles kind ~macs = scaled kind (of_f (conv_cpm *. float_of_int macs))

let matmul_macs_cycles kind ~macs =
  scaled kind (of_f (matmul_cpm *. float_of_int macs))

let depthwise_macs_cycles kind ~macs =
  scaled kind (of_f (depthwise_cpm *. float_of_int macs))

let elementwise_cycles kind ~elems =
  scaled kind (of_f (elementwise_cpe *. float_of_int elems))

let pooling_cycles kind ~elems ~window =
  scaled kind
    (of_f (pooling_cpe_per_window *. float_of_int (elems * window * window)))

(* Software im2col: a copy loop with address arithmetic; BOOM gains
   exactly its memory-level parallelism factor of 2.0 here (the paper's
   "2.0x across all CNNs" observation). *)
let im2col_cycles kind ~patch_elems =
  let rocket_cycles = of_f (12.0 *. float_of_int patch_elems) in
  match kind with
  | Rocket -> rocket_cycles
  | Boom -> (rocket_cycles + 1) / 2
