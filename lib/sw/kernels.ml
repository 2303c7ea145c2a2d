open Gemmini
open Gem_util
module L = Local_addr

type op = Gem_soc.Soc.op

let insn i = Gem_soc.Soc.Insn i

let fence = insn Isa.Fence
let flush_tlb = insn Isa.Flush

(* Hardware limits of the mover: one mvin touches at most DIM rows and
   MAX_BLOCK_LEN (4) adjacent DIM-blocks of columns. *)
let max_block_len = 4

type conv_im2col = Im2col_on_cpu | Im2col_on_accel | Im2col_preexpanded of int

(* Every kernel emits onto a reversed accumulator ([acc], most recent op
   first) and returns it extended: the runtime threads one accumulator
   through a whole layer and reverses it once, instead of concatenating
   per-kernel lists. [matmul_ops] is the one-kernel list. *)

let matmul_rev p ?tiling ?schedule ?bias ?bias_column
    ?(act = Peripheral.No_activation) ?(scale = 1.0) ?a_row_stride
    ?b_row_stride ?c_row_stride ?(a_condense = 1.0) ~a ~b ~out ~m ~k ~n acc =
  if m <= 0 || k <= 0 || n <= 0 then invalid_arg "Kernels.matmul: empty problem";
  if Option.is_some bias && Option.is_some bias_column then
    invalid_arg "Kernels.matmul: bias and bias_column are exclusive";
  if Option.is_some bias_column && n > Gemmini.Params.dim p then
    invalid_arg "Kernels.matmul: bias_column requires n <= DIM";
  let p = Params.validate_exn p in
  let dim = Params.dim p in
  let sched =
    match (schedule, tiling) with
    | Some s, _ ->
        if not (Schedule.fits p s) then
          invalid_arg "Kernels.matmul: schedule tiling does not fit the memories";
        s
    | None, Some t ->
        if not (Tiling.fits p t) then
          invalid_arg "Kernels.matmul: manual tiling does not fit the memories";
        Schedule.of_tiling p t
    | None, None -> Schedule.choose p ~m ~k ~n
  in
  let tl = sched.Schedule.tiling in
  let bi, bk, bj = Tiling.blocks p ~m ~k ~n in
  let a_stride = Option.value a_row_stride ~default:k in
  let b_stride = Option.value b_row_stride ~default:n in
  let c_stride = Option.value c_row_stride ~default:n in
  (* Condensed A fetch models the on-the-fly im2col unit: the loader reads
     the raw input footprint instead of the expanded patch matrix. Timing
     mode only. *)
  let condense_len x = max 1 (int_of_float (Float.round (float_of_int x *. a_condense))) in
  let condense_off x = int_of_float (Float.round (float_of_int x *. a_condense)) in
  let a_tile_rows = tl.Tiling.ti * tl.Tiling.tk * dim in
  let b_tile_rows = tl.Tiling.tk * tl.Tiling.tj * dim in
  let a_base parity = parity * a_tile_rows in
  let b_base parity = (2 * a_tile_rows) + (parity * b_tile_rows) in
  let c_base ii jj = (ii * tl.Tiling.tj) + jj |> ( * ) dim in
  let ops = ref acc in
  let emit i = ops := insn i :: !ops in
  emit
    (Isa.Config_ex
       {
         dataflow = sched.Schedule.dataflow;
         activation = Peripheral.No_activation;
         sys_shift = 0;
         a_transpose = false;
         b_transpose = false;
       });
  emit (Isa.Config_ld { ld_stride_bytes = condense_len a_stride; ld_scale = 1.0; ld_shrunk = false; ld_id = 0 });
  emit (Isa.Config_ld { ld_stride_bytes = b_stride; ld_scale = 1.0; ld_shrunk = false; ld_id = 1 });
  emit
    (Isa.Config_ld
       {
         ld_stride_bytes = (if Option.is_some bias_column then 4 else 0);
         ld_scale = 1.0;
         ld_shrunk = false;
         ld_id = 2;
       });
  emit
    (Isa.Config_st
       { st_stride_bytes = c_stride; st_activation = act; st_scale = scale; st_pool = None });
  let rows_of gi = min dim (m - (gi * dim)) in
  let kcols_of gk = min dim (k - (gk * dim)) in
  let ncols_of gj = min dim (n - (gj * dim)) in
  let it = ref 0 in
  for i0 = 0 to Mathx.ceil_div bi tl.Tiling.ti - 1 do
    let vi = min tl.Tiling.ti (bi - (i0 * tl.Tiling.ti)) in
    for j0 = 0 to Mathx.ceil_div bj tl.Tiling.tj - 1 do
      let vj = min tl.Tiling.tj (bj - (j0 * tl.Tiling.tj)) in
      (* Stage the bias (if any) into the C accumulator tile: a stride-0
         broadcast mvin per block. *)
      (match (bias, bias_column) with
      | None, None -> ()
      | Some bias_va, _ | None, Some bias_va ->
          for ii = 0 to vi - 1 do
            for jj = 0 to vj - 1 do
              let gi = (i0 * tl.Tiling.ti) + ii and gj = (j0 * tl.Tiling.tj) + jj in
              let dram_addr =
                match bias_column with
                | Some _ -> bias_va + (gi * dim * 4) (* one word per row *)
                | None -> bias_va + (gj * dim * 4) (* broadcast per column *)
              in
              emit
                (Isa.Mvin
                   ( {
                       Isa.dram_addr;
                       local = L.accumulator ~row:(c_base ii jj) ();
                       cols = ncols_of gj;
                       rows = rows_of gi;
                     },
                     2 ))
            done
          done);
      for k0 = 0 to Mathx.ceil_div bk tl.Tiling.tk - 1 do
        let vk = min tl.Tiling.tk (bk - (k0 * tl.Tiling.tk)) in
        let parity = !it land 1 in
        incr it;
        (* Load the A tile. *)
        for ii = 0 to vi - 1 do
          let gi = (i0 * tl.Tiling.ti) + ii in
          let kk = ref 0 in
          while !kk < vk do
            let w = min max_block_len (vk - !kk) in
            let gk = (k0 * tl.Tiling.tk) + !kk in
            let cols = min (w * dim) (k - (gk * dim)) in
            emit
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
            let w = min max_block_len (vj - !jj) in
            let gj = (j0 * tl.Tiling.tj) + !jj in
            let cols = min (w * dim) (n - (gj * dim)) in
            emit
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
        (* Compute: keep each B block stationary across the I dimension. *)
        for kk = 0 to vk - 1 do
          let gk = (k0 * tl.Tiling.tk) + kk in
          for jj = 0 to vj - 1 do
            let gj = (j0 * tl.Tiling.tj) + jj in
            let b_local =
              L.scratchpad ~row:(b_base parity + (((kk * tl.Tiling.tj) + jj) * dim))
            in
            for ii = 0 to vi - 1 do
              let gi = (i0 * tl.Tiling.ti) + ii in
              let first_of_b = ii = 0 in
              let accumulate =
                Option.is_some bias || Option.is_some bias_column || k0 > 0 || kk > 0
              in
              let c_la = L.accumulator ~accumulate ~row:(c_base ii jj) () in
              emit
                (Isa.Preload
                   {
                     b = (if first_of_b then b_local else L.garbage);
                     c = c_la;
                     b_rows = kcols_of gk;
                     b_cols = ncols_of gj;
                     c_rows = rows_of gi;
                     c_cols = ncols_of gj;
                   });
              let args =
                {
                  Isa.a =
                    L.scratchpad ~row:(a_base parity + (((ii * tl.Tiling.tk) + kk) * dim));
                  bd = L.garbage;
                  a_cols = kcols_of gk;
                  a_rows = rows_of gi;
                  bd_cols = ncols_of gj;
                  bd_rows = rows_of gi;
                }
              in
              emit
                (if first_of_b then Isa.Compute_preloaded args
                 else Isa.Compute_accumulated args)
            done
          done
        done
      done;
      (* Drain the C tile. *)
      for ii = 0 to vi - 1 do
        for jj = 0 to vj - 1 do
          let gi = (i0 * tl.Tiling.ti) + ii and gj = (j0 * tl.Tiling.tj) + jj in
          emit
            (Isa.Mvout
               {
                 Isa.dram_addr = out + (gi * dim * c_stride) + (gj * dim);
                 local = L.accumulator ~row:(c_base ii jj) ();
                 cols = ncols_of gj;
                 rows = rows_of gi;
               })
        done
      done
    done
  done;
  !ops

let matmul_ops p ?tiling ?schedule ?bias ?bias_column ?act ?scale ?a_row_stride
    ?b_row_stride ?c_row_stride ?a_condense ~a ~b ~out ~m ~k ~n () =
  List.rev
    (matmul_rev p ?tiling ?schedule ?bias ?bias_column ?act ?scale ?a_row_stride
       ?b_row_stride ?c_row_stride ?a_condense ~a ~b ~out ~m ~k ~n [])

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

let resadd_rev p ?(relu = false) ~x ~y ~out ~elems acc =
  if elems <= 0 then invalid_arg "Kernels.resadd: empty";
  let p = Params.validate_exn p in
  let dim = Params.dim p in
  let acc_groups = Params.acc_rows p / dim in
  let ops = ref acc in
  let emit i = ops := insn i :: !ops in
  let row_bytes = dim in
  emit (Isa.Config_ld { ld_stride_bytes = row_bytes; ld_scale = 1.0; ld_shrunk = true; ld_id = 0 });
  emit (Isa.Config_ld { ld_stride_bytes = row_bytes; ld_scale = 1.0; ld_shrunk = true; ld_id = 1 });
  emit
    (Isa.Config_st
       {
         st_stride_bytes = row_bytes;
         st_activation = (if relu then Peripheral.Relu else Peripheral.No_activation);
         st_scale = 1.0;
         st_pool = None;
       });
  let total_rows = Mathx.ceil_div elems dim in
  let g = ref 0 in
  let row = ref 0 in
  while !row < total_rows do
    let rows = min dim (total_rows - !row) in
    (* Rows in the last group may be ragged; process full-width rows and a
       partial tail row in the same mvin by clamping cols. *)
    let base_off = !row * dim in
    let acc_row = !g mod acc_groups * dim in
    let mv vaddr ~accumulate id =
      emit
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
    emit
      (Isa.Mvout
         {
           Isa.dram_addr = out + base_off;
           local = L.accumulator ~row:acc_row ();
           cols = dim;
           rows;
         });
    incr g;
    row := !row + rows
  done;
  !ops

(* --- pooling --------------------------------------------------------------- *)

let maxpool_rev p ~cpu ~input ~out ~spec acc =
  let open Gem_dnn.Layer in
  let p = Params.validate_exn p in
  let dim = Params.dim p in
  let in_elems = spec.p_in_h * spec.p_in_w * spec.p_ch in
  let out_h = ((spec.p_in_h + (2 * spec.p_padding) - spec.window) / spec.p_stride) + 1 in
  let out_w = ((spec.p_in_w + (2 * spec.p_padding) - spec.window) / spec.p_stride) + 1 in
  let out_elems = out_h * out_w * spec.p_ch in
  if not p.Params.has_pooling then
    Gem_soc.Soc.Host_work
      {
        cycles = Gem_cpu.Cpu_model.pooling_cycles cpu ~elems:out_elems ~window:spec.window;
        tag = "maxpool(cpu)";
      }
    :: acc
  else begin
    (* The pooling unit works on the store path: stream the input through
       the scratchpad, write the pooled map back. *)
    let ops = ref acc in
    let emit i = ops := insn i :: !ops in
    emit (Isa.Config_ld { ld_stride_bytes = dim; ld_scale = 1.0; ld_shrunk = false; ld_id = 0 });
    emit
      (Isa.Config_st
         {
           st_stride_bytes = dim;
           st_activation = Peripheral.No_activation;
           st_scale = 1.0;
           st_pool =
             Some { Isa.window = spec.window; stride = spec.p_stride; padding = spec.p_padding };
         });
    let sp_rows = Params.sp_rows p in
    let in_rows = Mathx.ceil_div in_elems dim in
    let out_rows = Mathx.ceil_div out_elems dim in
    (* Interleave loads and pooled stores at the steady-state ratio. *)
    let loads_per_store = max 1 (Mathx.ceil_div in_rows (max 1 out_rows)) in
    let li = ref 0 and si = ref 0 and g = ref 0 in
    while !li < in_rows || !si < out_rows do
      if !li < in_rows then begin
        let rows = min dim (in_rows - !li) in
        for _ = 1 to loads_per_store do
          if !li < in_rows then begin
            let rows = min rows (in_rows - !li) in
            emit
              (Isa.Mvin
                 ( {
                     Isa.dram_addr = input + (!li * dim);
                     local = L.scratchpad ~row:(!g * dim mod sp_rows);
                     cols = dim;
                     rows;
                   },
                   0 ));
            incr g;
            li := !li + rows
          end
        done
      end;
      if !si < out_rows then begin
        let rows = min dim (out_rows - !si) in
        emit
          (Isa.Mvout
             {
               Isa.dram_addr = out + (!si * dim);
               local = L.scratchpad ~row:(max 0 ((!g - 1) * dim mod sp_rows));
               cols = dim;
               rows;
             });
        si := !si + rows
      end
    done;
    !ops
  end

(* --- host-side work -------------------------------------------------------- *)

let host_elementwise_ops ~cpu ~elems ~tag =
  [
    Gem_soc.Soc.Host_work
      { cycles = Gem_cpu.Cpu_model.elementwise_cycles cpu ~elems; tag };
  ]

(* --- convolution ------------------------------------------------------------ *)

let conv_rev p ~cpu ~im2col ?bias ?(scale = 1.0) ~input ~weights ~out ~spec
    ~patch_scratch acc =
  let open Gem_dnn.Layer in
  let oh, ow = conv_out_dims spec in
  let act = if spec.relu then Peripheral.Relu else Peripheral.No_activation in
  if spec.depthwise then begin
    (* One skinny matmul per channel: M = output pixels, K = kernel^2,
       N = 1. Low reuse and a mostly-idle array — the MobileNetV2
       bottleneck the paper calls out. *)
    let m = oh * ow and k = spec.kernel * spec.kernel in
    let per_channel_patch = m * k in
    let acc =
      match im2col with
      | Im2col_on_cpu ->
          Gem_soc.Soc.Host_work
            {
              cycles =
                Gem_cpu.Cpu_model.im2col_cycles cpu
                  ~patch_elems:(per_channel_patch * spec.in_ch);
              tag = "im2col(cpu,dw)";
            }
          :: acc
      | Im2col_on_accel | Im2col_preexpanded _ -> acc
    in
    let channel_ops acc ch =
      let a_va, a_condense, a_stride =
        match im2col with
        | Im2col_on_cpu -> (patch_scratch + (ch * per_channel_patch), 1.0, k)
        | Im2col_preexpanded va -> (va + (ch * per_channel_patch), 1.0, k)
        | Im2col_on_accel ->
            let ratio =
              float_of_int (spec.in_h * spec.in_w) /. float_of_int (m * k)
            in
            (input + (ch * spec.in_h * spec.in_w / max 1 spec.in_ch), min 1.0 ratio, k)
      in
      matmul_rev p
        ?bias:(Option.map (fun b -> b + (4 * ch)) bias)
        ~act ~scale ~a_row_stride:a_stride ~a_condense ~a:a_va
        ~b:(weights + (ch * k))
        ~out:(out + ch) ~c_row_stride:spec.in_ch (* NHWC channel-strided output *)
        ~m ~k ~n:1 acc
    in
    let acc = ref acc in
    for ch = 0 to spec.in_ch - 1 do
      acc := channel_ops !acc ch
    done;
    !acc
  end
  else begin
    let m = oh * ow and k = spec.kernel * spec.kernel * spec.in_ch and n = spec.out_ch in
    match im2col with
    | Im2col_on_cpu ->
        matmul_rev p ?bias ~act ~scale ~a:patch_scratch ~b:weights ~out ~m ~k ~n
          (Gem_soc.Soc.Host_work
             {
               cycles = Gem_cpu.Cpu_model.im2col_cycles cpu ~patch_elems:(m * k);
               tag = "im2col(cpu)";
             }
          :: acc)
    | Im2col_preexpanded va ->
        matmul_rev p ?bias ~act ~scale ~a:va ~b:weights ~out ~m ~k ~n acc
    | Im2col_on_accel ->
        if not p.Params.has_im2col then
          invalid_arg "Kernels.conv: accelerator has no im2col block";
        (* The im2col unit expands on the fly: the A loads read only the
           raw input footprint. *)
        let ratio =
          float_of_int (spec.in_h * spec.in_w * spec.in_ch) /. float_of_int (m * k)
        in
        matmul_rev p ?bias ~act ~scale ~a:input ~a_condense:(min 1.0 ratio) ~m ~k ~n
          ~b:weights ~out acc
  end
