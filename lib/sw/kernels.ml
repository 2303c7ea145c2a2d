open Gemmini
open Gem_util
module L = Local_addr

type op = Gem_soc.Soc.op

let insn i = Gem_soc.Soc.Insn i

(* A step pushes each command through [emit push]: a top-level function,
   so a step allocates no emitter closure of its own. *)
let emit push i = push (insn i)

let fence = insn Isa.Fence
let flush_tlb = insn Isa.Flush

(* Hardware limits of the mover: one mvin touches at most DIM rows and
   MAX_BLOCK_LEN (4) adjacent DIM-blocks of columns. *)
let max_block_len = 4

(* Every kernel exposes its outer loop as [steps] (see [Soc.steps]): a
   consumer that expands one step at a time never holds a whole kernel's
   command list. *)
type steps = Gem_soc.Soc.steps

let single op = Seq.return (fun emit -> emit op)

let ops s =
  let acc = ref [] in
  let push = function
    | Gem_soc.Soc.Compute_run r -> Controller.run_commands r (fun i -> acc := insn i :: !acc)
    | op -> acc := op :: !acc
  in
  Seq.iter (fun step -> step push) s;
  List.rev !acc

(* One step is one (i0, j0, k0) tile of the i0 -> j0 -> k0 nest: step 0
   also configures the units, a k0 = 0 step first stages the bias into
   the C tile, and the last k0 step drains it. *)
let matmul_steps p ?bias ?(act = Peripheral.No_activation) ?(scale = 1.0) ~a
    ~b ~out (ms : Lower.matmul_shape) =
  let m = ms.Lower.ms_m and k = ms.Lower.ms_k and n = ms.Lower.ms_n in
  if m <= 0 || k <= 0 || n <= 0 then invalid_arg "Kernels.matmul: empty problem";
  let column =
    match (ms.Lower.ms_bias, bias) with
    | `None, None | `Broadcast, Some _ -> false
    | `Column, Some _ -> true
    | `None, Some _ | (`Broadcast | `Column), None ->
        invalid_arg "Kernels.matmul: bias address and shape bias disagree"
  in
  if column && n > Gemmini.Params.dim p then
    invalid_arg "Kernels.matmul: a per-row bias requires n <= DIM";
  let p = Params.validate_exn p in
  let dim = Params.dim p in
  let sched = ms.Lower.ms_schedule in
  let tl = sched.Schedule.tiling in
  let bi, bk, bj = Tiling.blocks p ~m ~k ~n in
  let ni = Mathx.ceil_div bi tl.Tiling.ti
  and nj = Mathx.ceil_div bj tl.Tiling.tj
  and nk = Mathx.ceil_div bk tl.Tiling.tk in
  let a_stride = ms.Lower.ms_a_stride
  and b_stride = ms.Lower.ms_b_stride
  and c_stride = ms.Lower.ms_c_stride
  and a_condense = ms.Lower.ms_a_condense in
  (* Condensed A fetch models the on-the-fly im2col unit: the loader reads
     the raw input footprint instead of the expanded patch matrix. Timing
     mode only. *)
  let condense_len x = Int.max 1 (int_of_float (Float.round (float_of_int x *. a_condense))) in
  let condense_off x = int_of_float (Float.round (float_of_int x *. a_condense)) in
  let a_tile_rows = tl.Tiling.ti * tl.Tiling.tk * dim in
  let b_tile_rows = tl.Tiling.tk * tl.Tiling.tj * dim in
  let a_base parity = parity * a_tile_rows in
  let b_base parity = (2 * a_tile_rows) + (parity * b_tile_rows) in
  let c_base ii jj = (ii * tl.Tiling.tj) + jj |> ( * ) dim in
  let rows_of gi = Int.min dim (m - (gi * dim)) in
  let kcols_of gk = Int.min dim (k - (gk * dim)) in
  let ncols_of gj = Int.min dim (n - (gj * dim)) in
  let step s push =
    if s = 0 then begin
      emit push
        (Isa.Config_ex
           {
             dataflow = sched.Schedule.dataflow;
             activation = Peripheral.No_activation;
             sys_shift = 0;
             a_transpose = false;
             b_transpose = false;
           });
      emit push (Isa.Config_ld { ld_stride_bytes = condense_len a_stride; ld_scale = 1.0; ld_shrunk = false; ld_id = 0 });
      emit push (Isa.Config_ld { ld_stride_bytes = b_stride; ld_scale = 1.0; ld_shrunk = false; ld_id = 1 });
      emit push
        (Isa.Config_ld
           {
             ld_stride_bytes = (if column then 4 else 0);
             ld_scale = 1.0;
             ld_shrunk = false;
             ld_id = 2;
           });
      emit push
        (Isa.Config_st
           { st_stride_bytes = c_stride; st_activation = act; st_scale = scale; st_pool = None })
    end;
    let i0 = s / (nj * nk) and j0 = s / nk mod nj and k0 = s mod nk in
    (* The A/B buffers ping-pong once per k0 step. *)
    let parity = s land 1 in
    let vi = Int.min tl.Tiling.ti (bi - (i0 * tl.Tiling.ti)) in
    let vj = Int.min tl.Tiling.tj (bj - (j0 * tl.Tiling.tj)) in
    let vk = Int.min tl.Tiling.tk (bk - (k0 * tl.Tiling.tk)) in
    (* Stage the bias (if any) into the C accumulator tile: a stride-0
       broadcast mvin per block. *)
    (match bias with
    | Some bias_va when k0 = 0 ->
        for ii = 0 to vi - 1 do
          for jj = 0 to vj - 1 do
            let gi = (i0 * tl.Tiling.ti) + ii and gj = (j0 * tl.Tiling.tj) + jj in
            let dram_addr =
              if column then bias_va + (gi * dim * 4) (* one word per row *)
              else bias_va + (gj * dim * 4) (* broadcast per column *)
            in
            emit push
              (Isa.Mvin
                 ( {
                     Isa.dram_addr;
                     local = L.accumulator ~row:(c_base ii jj) ();
                     cols = ncols_of gj;
                     rows = rows_of gi;
                   },
                   2 ))
          done
        done
    | _ -> ());
    (* Load the A tile. *)
    for ii = 0 to vi - 1 do
      let gi = (i0 * tl.Tiling.ti) + ii in
      let kk = ref 0 in
      while !kk < vk do
        let w = Int.min max_block_len (vk - !kk) in
        let gk = (k0 * tl.Tiling.tk) + !kk in
        let cols = Int.min (w * dim) (k - (gk * dim)) in
        emit push
          (Isa.Mvin
             ( {
                 Isa.dram_addr = a + condense_off ((gi * dim * a_stride) + (gk * dim));
                 local = L.scratchpad ~row:(a_base parity + (((ii * tl.Tiling.tk) + !kk) * dim));
                 cols = condense_len cols;
                 rows = rows_of gi;
               },
               0 ));
        kk := !kk + w
      done
    done;
    (* Load the B tile. *)
    for kk = 0 to vk - 1 do
      let gk = (k0 * tl.Tiling.tk) + kk in
      let jj = ref 0 in
      while !jj < vj do
        let w = Int.min max_block_len (vj - !jj) in
        let gj = (j0 * tl.Tiling.tj) + !jj in
        let cols = Int.min (w * dim) (n - (gj * dim)) in
        emit push
          (Isa.Mvin
             ( {
                 Isa.dram_addr = b + (gk * dim * b_stride) + (gj * dim);
                 local = L.scratchpad ~row:(b_base parity + (((kk * tl.Tiling.tj) + !jj) * dim));
                 cols;
                 rows = kcols_of gk;
               },
               1 ));
        jj := !jj + w
      done
    done;
    (* Compute: keep each B block stationary across the I dimension, as
       one run. *)
    push
      (Gem_soc.Soc.Compute_run
         {
           Controller.cr_m = m;
           cr_k = k;
           cr_n = n;
           cr_i0 = i0 * tl.Tiling.ti;
           cr_j0 = j0 * tl.Tiling.tj;
           cr_k0 = k0 * tl.Tiling.tk;
           cr_vi = vi;
           cr_vj = vj;
           cr_vk = vk;
           cr_tk = tl.Tiling.tk;
           cr_tj = tl.Tiling.tj;
           cr_a_base = a_base parity;
           cr_b_base = b_base parity;
           cr_accumulate = Option.is_some bias || k0 > 0;
           cr_dim = dim;
         });
    (* Drain the C tile. *)
    if k0 = nk - 1 then
      for ii = 0 to vi - 1 do
        for jj = 0 to vj - 1 do
          let gi = (i0 * tl.Tiling.ti) + ii and gj = (j0 * tl.Tiling.tj) + jj in
          emit push
            (Isa.Mvout
               {
                 Isa.dram_addr = out + (gi * dim * c_stride) + (gj * dim);
                 local = L.accumulator ~row:(c_base ii jj) ();
                 cols = ncols_of gj;
                 rows = rows_of gi;
               })
        done
      done
  in
  Seq.init (ni * nj * nk) step

let matmul_ops p ?tiling ?bias ?act ?scale ~a ~b ~out ~m ~k ~n () =
  let schedule =
    Option.map
      (fun t ->
        if not (Tiling.fits p t) then
          invalid_arg "Kernels.matmul: manual tiling does not fit the memories";
        Schedule.of_tiling p t)
      tiling
  in
  let bias_kind = if Option.is_some bias then `Broadcast else `None in
  ops
    (matmul_steps p ?bias ?act ?scale ~a ~b ~out
       (Lower.matmul_shape p ?schedule ~bias:bias_kind ~m ~k ~n ()))

let matmul_loop_ws_ops p ?bias ?(act = Peripheral.No_activation) ?(scale = 1.0)
    ~a ~b ~out ~m ~k ~n () =
  let _ = Params.validate_exn p in
  [
    insn
      (Isa.Loop_ws_bounds
         { Isa.lw_m = m; lw_k = k; lw_n = n; lw_has_bias = Option.is_some bias; lw_activation = act });
    insn (Isa.Loop_ws_addrs { Isa.lw_a = a; lw_b = b });
    insn (Isa.Loop_ws_outs { Isa.lw_bias = Option.value bias ~default:0; lw_c = out });
    insn
      (Isa.Loop_ws
         { Isa.lw_a_stride = k; lw_b_stride = n; lw_c_stride = n; lw_scale = scale });
  ]

(* --- residual addition ---------------------------------------------------- *)

(* One step per accumulator row group: stream X in, accumulate Y onto it,
   store back. *)
let resadd_steps p ?(relu = false) ~x ~y ~out ~elems () =
  if elems <= 0 then invalid_arg "Kernels.resadd: empty";
  let p = Params.validate_exn p in
  let dim = Params.dim p in
  let acc_groups = Params.acc_rows p / dim in
  let row_bytes = dim in
  let total_rows = Mathx.ceil_div elems dim in
  let step g push =
    if g = 0 then begin
      emit push (Isa.Config_ld { ld_stride_bytes = row_bytes; ld_scale = 1.0; ld_shrunk = true; ld_id = 0 });
      emit push (Isa.Config_ld { ld_stride_bytes = row_bytes; ld_scale = 1.0; ld_shrunk = true; ld_id = 1 });
      emit push
        (Isa.Config_st
           {
             st_stride_bytes = row_bytes;
             st_activation = (if relu then Peripheral.Relu else Peripheral.No_activation);
             st_scale = 1.0;
             st_pool = None;
           })
    end;
    let row = g * dim in
    let rows = Int.min dim (total_rows - row) in
    (* Rows in the last group may be ragged; process full-width rows and a
       partial tail row in the same mvin by clamping cols. *)
    let base_off = row * dim in
    let acc_row = g mod acc_groups * dim in
    let mv vaddr ~accumulate id =
      emit push
        (Isa.Mvin
           ( {
               Isa.dram_addr = vaddr + base_off;
               local = L.accumulator ~accumulate ~row:acc_row ();
               cols = dim;
               rows;
             },
             id ))
    in
    mv x ~accumulate:false 0;
    mv y ~accumulate:true 1;
    emit push
      (Isa.Mvout
         {
           Isa.dram_addr = out + base_off;
           local = L.accumulator ~row:acc_row ();
           cols = dim;
           rows;
         })
  in
  Seq.init (Mathx.ceil_div total_rows dim) step

(* --- pooling --------------------------------------------------------------- *)

let maxpool_steps p ~input ~out ~spec =
  let open Gem_dnn.Layer in
  let p = Params.validate_exn p in
  if not p.Params.has_pooling then
    invalid_arg "Kernels.maxpool: accelerator has no pooling unit";
  let dim = Params.dim p in
  let in_elems = spec.p_in_h * spec.p_in_w * spec.p_ch in
  let out_h, out_w = pool_out_dims spec in
  let out_elems = out_h * out_w * spec.p_ch in
  (* The pooling unit works on the store path: stream the input through
     the scratchpad, write the pooled map back. *)
  let sp_rows = Params.sp_rows p in
  let in_rows = Mathx.ceil_div in_elems dim in
  let out_rows = Mathx.ceil_div out_elems dim in
  let loads = Mathx.ceil_div in_rows dim and stores = Mathx.ceil_div out_rows dim in
  (* Interleave loads and pooled stores at the steady-state ratio: step
     [t] issues loads [t * per, (t + 1) * per) and then store [t]. *)
  let per = max 1 (Mathx.ceil_div in_rows (max 1 out_rows)) in
  let step t push =
    if t = 0 then begin
      emit push (Isa.Config_ld { ld_stride_bytes = dim; ld_scale = 1.0; ld_shrunk = false; ld_id = 0 });
      emit push
        (Isa.Config_st
           {
             st_stride_bytes = dim;
             st_activation = Peripheral.No_activation;
             st_scale = 1.0;
             st_pool =
               Some { Isa.window = spec.window; stride = spec.p_stride; padding = spec.p_padding };
           })
    end;
    let loaded = Int.min loads ((t + 1) * per) in
    for g = t * per to loaded - 1 do
      emit push
        (Isa.Mvin
           ( {
               Isa.dram_addr = input + (g * dim * dim);
               local = L.scratchpad ~row:(g * dim mod sp_rows);
               cols = dim;
               rows = Int.min dim (in_rows - (g * dim));
             },
             0 ))
    done;
    if t < stores then
      emit push
        (Isa.Mvout
           {
             Isa.dram_addr = out + (t * dim * dim);
             local = L.scratchpad ~row:(Int.max 0 ((loaded - 1) * dim mod sp_rows));
             cols = dim;
             rows = Int.min dim (out_rows - (t * dim));
           })
  in
  Seq.init (max (Mathx.ceil_div loads per) stores) step
