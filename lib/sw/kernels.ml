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

(* Every kernel exposes its outer loop as [steps] (see [Soc.steps]): a
   consumer that expands one step at a time never holds a whole kernel's
   command list. *)
type steps = Gem_soc.Soc.steps

let single op = Seq.return (fun emit -> emit op)

let ops s =
  let acc = ref [] in
  let push = function
    | Gem_soc.Soc.Compute_run r -> Tiled_matmul.run_commands r (fun i -> acc := insn i :: !acc)
    | op -> acc := op :: !acc
  in
  Seq.iter (fun step -> step push) s;
  List.rev !acc

(* One step is one (i0, j0, k0) tile of {!Tiled_matmul}'s nest, pushed
   through top-level callbacks. *)
let emit_run push r = push (Gem_soc.Soc.Compute_run r)
let matmul_step mm s push = Tiled_matmul.step mm s ~cmd:emit ~run:emit_run push

let matmul_steps p ?bias ?(act = Peripheral.No_activation) ?(scale = 1.0) ~a
    ~b ~out (ms : Lower.matmul_shape) =
  let m = ms.Lower.ms_m and k = ms.Lower.ms_k and n = ms.Lower.ms_n in
  if m <= 0 || k <= 0 || n <= 0 then invalid_arg "Kernels.matmul: empty problem";
  let bias =
    match (ms.Lower.ms_bias, bias) with
    | `None, None -> Tiled_matmul.No_bias
    | `Broadcast, Some va -> Tiled_matmul.Broadcast va
    | `Column, Some va -> Tiled_matmul.Column va
    | `None, Some _ | (`Broadcast | `Column), None ->
        invalid_arg "Kernels.matmul: bias address and shape bias disagree"
  in
  (match bias with
  | Tiled_matmul.Column _ when n > Gemmini.Params.dim p ->
      invalid_arg "Kernels.matmul: a per-row bias requires n <= DIM"
  | _ -> ());
  let p = Params.validate_exn p in
  let sched = ms.Lower.ms_schedule in
  let mm =
    Tiled_matmul.make p ~tiling:sched.Schedule.tiling ~dataflow:sched.Schedule.dataflow ~bias
      ~act ~scale ~a_stride:ms.Lower.ms_a_stride ~b_stride:ms.Lower.ms_b_stride
      ~c_stride:ms.Lower.ms_c_stride ~a_condense:ms.Lower.ms_a_condense ~a ~b ~out ~m ~k ~n
  in
  Seq.init (Tiled_matmul.steps mm) (matmul_step mm)

let matmul_ops p ?tiling ?bias ?act ?scale ~a ~b ~out ~m ~k ~n () =
  let schedule = Option.map (Schedule.of_tiling p) tiling in
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
