open Gem_util

(* --- tile sizes ---------------------------------------------------------------- *)

type tiling = { ti : int; tk : int; tj : int }

let manual ~ti ~tk ~tj =
  if ti <= 0 || tk <= 0 || tj <= 0 then invalid_arg "Tiled_matmul.manual: non-positive tile";
  { ti; tk; tj }

(* A tile: ti*tk DIM-blocks, one block = DIM scratchpad rows; B tile:
   tk*tj blocks. Both double-buffered. C tile: ti*tj blocks in the
   accumulator. *)
let sp_rows_needed p t = 2 * ((t.ti * t.tk) + (t.tk * t.tj)) * Params.dim p
let acc_rows_needed p t = t.ti * t.tj * Params.dim p

let fits p t =
  sp_rows_needed p t <= Params.sp_rows p && acc_rows_needed p t <= Params.acc_rows p

let require_fit p t =
  if not (fits p t) then
    invalid_arg
      (Printf.sprintf
         "Tiled_matmul: a %dx%dx%d tile of DIM blocks needs %d scratchpad rows and %d \
          accumulator rows; the instance has %d and %d"
         t.ti t.tk t.tj (sp_rows_needed p t) (acc_rows_needed p t) (Params.sp_rows p)
         (Params.acc_rows p))

let blocks p ~m ~k ~n =
  let dim = Params.dim p in
  (Mathx.ceil_div m dim, Mathx.ceil_div k dim, Mathx.ceil_div n dim)

let choose p ~m ~k ~n =
  let bi, bk, bj = blocks p ~m ~k ~n in
  (* Round-robin growth, like gemmini's tiled_matmul_auto: repeatedly try
     to bump each tile dimension (capped at the problem extent) and keep
     the bump if the tiles still fit. *)
  let t = ref { ti = 1; tk = 1; tj = 1 } in
  let continue = ref true in
  while !continue do
    continue := false;
    let try_bump f cap current =
      let candidate = f !t in
      if current < cap && fits p candidate then begin
        t := candidate;
        continue := true
      end
    in
    try_bump (fun t -> { t with ti = t.ti + 1 }) bi !t.ti;
    try_bump (fun t -> { t with tj = t.tj + 1 }) bj !t.tj;
    try_bump (fun t -> { t with tk = t.tk + 1 }) bk !t.tk
  done;
  !t

let dram_traffic_bytes p t ~m ~k ~n =
  let bi, _, bj = blocks p ~m ~k ~n in
  let sweeps_a = Mathx.ceil_div bj t.tj in
  let sweeps_b = Mathx.ceil_div bi t.ti in
  (m * k * sweeps_a) + (k * n * sweeps_b) + (m * n)

(* --- compute runs --------------------------------------------------------------

   One tile step's weight-stationary nest, kk -> jj -> ii: per block a
   Preload (B only on the first ii of a B block) and a Compute. Blocks
   along each dimension are [dim] wide except the last of the problem,
   which is ragged. *)

type compute_run = {
  cr_m : int;
  cr_k : int;
  cr_n : int;
  cr_i0 : int;
  cr_j0 : int;
  cr_k0 : int;
  cr_vi : int;
  cr_vj : int;
  cr_vk : int;
  cr_tk : int;
  cr_tj : int;
  cr_a_base : int;
  cr_b_base : int;
  cr_accumulate : bool;
  cr_dim : int;
}

let[@inline] run_rows r gi = Int.min r.cr_dim (r.cr_m - (gi * r.cr_dim))
let[@inline] run_kcols r gk = Int.min r.cr_dim (r.cr_k - (gk * r.cr_dim))
let[@inline] run_ncols r gj = Int.min r.cr_dim (r.cr_n - (gj * r.cr_dim))
let[@inline] run_a_row r ~ii ~kk = r.cr_a_base + (((ii * r.cr_tk) + kk) * r.cr_dim)
let[@inline] run_b_row r ~kk ~jj = r.cr_b_base + (((kk * r.cr_tj) + jj) * r.cr_dim)
let[@inline] run_c_row r ~ii ~jj = ((ii * r.cr_tj) + jj) * r.cr_dim

let run_commands r f =
  for kk = 0 to r.cr_vk - 1 do
    let kcols = run_kcols r (r.cr_k0 + kk) in
    let accumulate = r.cr_accumulate || kk > 0 in
    for jj = 0 to r.cr_vj - 1 do
      let ncols = run_ncols r (r.cr_j0 + jj) in
      let b_local = Local_addr.scratchpad ~row:(run_b_row r ~kk ~jj) in
      for ii = 0 to r.cr_vi - 1 do
        let rows = run_rows r (r.cr_i0 + ii) in
        let first_of_b = ii = 0 in
        f
          (Isa.Preload
             {
               b = (if first_of_b then b_local else Local_addr.garbage);
               c = Local_addr.accumulator ~accumulate ~row:(run_c_row r ~ii ~jj) ();
               b_rows = kcols;
               b_cols = ncols;
               c_rows = rows;
               c_cols = ncols;
             });
        let args =
          {
            Isa.a = Local_addr.scratchpad ~row:(run_a_row r ~ii ~kk);
            bd = Local_addr.garbage;
            a_cols = kcols;
            a_rows = rows;
            bd_cols = ncols;
            bd_rows = rows;
          }
        in
        f (if first_of_b then Isa.Compute_preloaded args else Isa.Compute_accumulated args)
      done
    done
  done

(* The run's bounding box, in O(1). Block sizes only shrink along a
   dimension, so every size is in [1, dim] when the last one is at least
   1; and with [tk], [tj] >= 1 each operand's last block reaches furthest
   into its memory. So when this holds, {!Isa.validate} accepts every
   command of {!run_commands}. *)
let run_fits p r =
  let dim = r.cr_dim in
  let vi = r.cr_vi and vj = r.cr_vj and vk = r.cr_vk in
  let last_rows = run_rows r (r.cr_i0 + vi - 1)
  and last_kcols = run_kcols r (r.cr_k0 + vk - 1)
  and last_ncols = run_ncols r (r.cr_j0 + vj - 1) in
  dim >= 1 && dim <= Params.dim p && dim <= 0xFFFF
  && vi >= 1 && vj >= 1 && vk >= 1 && r.cr_tk >= 1 && r.cr_tj >= 1
  && last_rows >= 1 && last_kcols >= 1 && last_ncols >= 1
  && r.cr_a_base >= 0 && r.cr_b_base >= 0
  && run_a_row r ~ii:(vi - 1) ~kk:(vk - 1) + last_rows <= Params.sp_rows p
  && run_b_row r ~kk:(vk - 1) ~jj:(vj - 1) + last_kcols <= Params.sp_rows p
  && run_c_row r ~ii:(vi - 1) ~jj:(vj - 1) + last_rows <= Params.acc_rows p

(* --- the step generator -------------------------------------------------------- *)

let max_block_len = 4

type bias = No_bias | Broadcast of int | Column of int

type t = {
  dim : int;
  m : int; k : int; n : int;
  tiling : tiling;
  dataflow : [ `WS | `OS ];
  bias : bias;
  act : Peripheral.activation;
  scale : float;
  a : int; b : int; out : int;
  a_stride : int; b_stride : int; c_stride : int;
  a_condense : float;
  bi : int; bk : int; bj : int;  (** extents in DIM-blocks *)
  nj : int; nk : int; steps : int;  (** tile steps along N, along K, in all *)
}

let make p ~tiling ~dataflow ~bias ~act ~scale ~a_stride ~b_stride ~c_stride ~a_condense ~a
    ~b ~out ~m ~k ~n =
  let bi, bk, bj = blocks p ~m ~k ~n in
  let ni = Mathx.ceil_div bi tiling.ti
  and nj = Mathx.ceil_div bj tiling.tj
  and nk = Mathx.ceil_div bk tiling.tk in
  { dim = Params.dim p; m; k; n; tiling; dataflow; bias; act; scale; a; b; out; a_stride;
    b_stride; c_stride; a_condense; bi; bk; bj; nj; nk; steps = ni * nj * nk }

let steps t = t.steps

(* Condensed A fetch models the on-the-fly im2col unit: the loader reads
   the raw input footprint instead of the expanded patch matrix, never
   less than one column. A factor of 1 fetches A as addressed. *)
let[@inline] condense t x =
  if t.a_condense = 1.0 then x
  else int_of_float (Float.round (float_of_int x *. t.a_condense))

let[@inline] condense_len t x = if t.a_condense = 1.0 then x else Int.max 1 (condense t x)

(* The A/B tiles ping-pong between two buffers once per step: A's two
   halves first, then B's. C tile (ii, jj) sits at its block offset in
   the accumulator. *)
let[@inline] a_base t parity = parity * t.tiling.ti * t.tiling.tk * t.dim

let[@inline] b_base t parity =
  (2 * t.tiling.ti * t.tiling.tk * t.dim) + (parity * t.tiling.tk * t.tiling.tj * t.dim)

let[@inline] c_base t ii jj = ((ii * t.tiling.tj) + jj) * t.dim
let[@inline] rows_of t gi = Int.min t.dim (t.m - (gi * t.dim))
let[@inline] kcols_of t gk = Int.min t.dim (t.k - (gk * t.dim))
let[@inline] ncols_of t gj = Int.min t.dim (t.n - (gj * t.dim))

let config_ld ~cmd x id stride =
  cmd x (Isa.Config_ld { ld_stride_bytes = stride; ld_scale = 1.0; ld_shrunk = false; ld_id = id })

let mvin ~cmd x id dram_addr local ~rows ~cols =
  cmd x (Isa.Mvin ({ Isa.dram_addr; local; rows; cols }, id))

let configure t ~cmd x =
  cmd x
    (Isa.Config_ex
       {
         dataflow = t.dataflow;
         activation = Peripheral.No_activation;
         sys_shift = 0;
         a_transpose = false;
         b_transpose = false;
       });
  config_ld ~cmd x 0 (condense_len t t.a_stride);
  config_ld ~cmd x 1 t.b_stride;
  config_ld ~cmd x 2 (match t.bias with Column _ -> 4 | No_bias | Broadcast _ -> 0);
  cmd x
    (Isa.Config_st
       { st_stride_bytes = t.c_stride; st_activation = t.act; st_scale = t.scale; st_pool = None })

let step t s ~cmd ~run x =
  if s = 0 then configure t ~cmd x;
  let { ti; tk; tj } = t.tiling and dim = t.dim in
  let i0 = s / (t.nj * t.nk) and j0 = s / t.nk mod t.nj and k0 = s mod t.nk in
  let parity = s land 1 in
  let vi = Int.min ti (t.bi - (i0 * ti)) in
  let vj = Int.min tj (t.bj - (j0 * tj)) in
  let vk = Int.min tk (t.bk - (k0 * tk)) in
  (* Stage the bias (if any) into the C accumulator tile, one mvin per
     block: a stride-0 broadcast of one word per column, or one word per
     row. *)
  (match t.bias with
  | (Broadcast va | Column va) when k0 = 0 ->
      for ii = 0 to vi - 1 do
        for jj = 0 to vj - 1 do
          let gi = (i0 * ti) + ii and gj = (j0 * tj) + jj in
          let g = match t.bias with Column _ -> gi | No_bias | Broadcast _ -> gj in
          mvin ~cmd x 2 (va + (g * dim * 4))
            (Local_addr.accumulator ~row:(c_base t ii jj) ())
            ~rows:(rows_of t gi) ~cols:(ncols_of t gj)
        done
      done
  | _ -> ());
  (* Load the A tile, MAX_BLOCK_LEN blocks per mvin. *)
  for ii = 0 to vi - 1 do
    let gi = (i0 * ti) + ii in
    let kk = ref 0 in
    while !kk < vk do
      let w = Int.min max_block_len (vk - !kk) in
      let gk = (k0 * tk) + !kk in
      mvin ~cmd x 0
        (t.a + condense t ((gi * dim * t.a_stride) + (gk * dim)))
        (Local_addr.scratchpad ~row:(a_base t parity + (((ii * tk) + !kk) * dim)))
        ~rows:(rows_of t gi)
        ~cols:(condense_len t (Int.min (w * dim) (t.k - (gk * dim))));
      kk := !kk + w
    done
  done;
  (* Load the B tile. *)
  for kk = 0 to vk - 1 do
    let gk = (k0 * tk) + kk in
    let jj = ref 0 in
    while !jj < vj do
      let w = Int.min max_block_len (vj - !jj) in
      let gj = (j0 * tj) + !jj in
      mvin ~cmd x 1
        (t.b + (gk * dim * t.b_stride) + (gj * dim))
        (Local_addr.scratchpad ~row:(b_base t parity + (((kk * tj) + !jj) * dim)))
        ~rows:(kcols_of t gk)
        ~cols:(Int.min (w * dim) (t.n - (gj * dim)));
      jj := !jj + w
    done
  done;
  (* Compute: keep each B block stationary across the I dimension, as
     one run. *)
  let biased = match t.bias with No_bias -> false | Broadcast _ | Column _ -> true in
  run x
    { cr_m = t.m; cr_k = t.k; cr_n = t.n; cr_i0 = i0 * ti; cr_j0 = j0 * tj; cr_k0 = k0 * tk;
      cr_vi = vi; cr_vj = vj; cr_vk = vk; cr_tk = tk; cr_tj = tj;
      cr_a_base = a_base t parity; cr_b_base = b_base t parity;
      cr_accumulate = biased || k0 > 0; cr_dim = dim };
  (* Drain the C tile after its last K step. *)
  if k0 = t.nk - 1 then
    for ii = 0 to vi - 1 do
      for jj = 0 to vj - 1 do
        let gi = (i0 * ti) + ii and gj = (j0 * tj) + jj in
        cmd x
          (Isa.Mvout
             { Isa.dram_addr = t.out + (gi * dim * t.c_stride) + (gj * dim);
               local = Local_addr.accumulator ~row:(c_base t ii jj) ();
               rows = rows_of t gi; cols = ncols_of t gj })
      done
    done
