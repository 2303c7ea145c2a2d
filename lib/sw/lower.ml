open Gem_dnn
module Cpu = Gem_cpu.Cpu_model

(* Backend-agnostic lowering: every per-layer decision — execution mode,
   software-fallback costs, the im2col placement, and the abstract kernel
   shapes (matmul dimensions, schedules, operand strides) — is made here,
   once. The cycle-accurate emitter ([Runtime] / [Kernels]) turns the plan
   into RoCC commands, adding only addresses, spans, guards and
   functional staging; the analytic backend prices the same plan in
   closed form. *)

type mode = Accel of { im2col_on_accel : bool } | Cpu_only

let mode_desc = function
  | Accel { im2col_on_accel = true } -> "accel+im2col"
  | Accel { im2col_on_accel = false } -> "accel(cpu-im2col)"
  | Cpu_only -> "cpu-only"

(* --- software-fallback costs -------------------------------------------------- *)

let cpu_layer_cycles cpu layer =
  let macs = Layer.macs layer in
  match layer with
  | Layer.Conv { depthwise = true; _ } -> Cpu.depthwise_macs_cycles cpu ~macs
  | Layer.Conv _ -> Cpu.conv_macs_cycles cpu ~macs
  | Layer.Matmul _ -> Cpu.matmul_macs_cycles cpu ~macs
  | Layer.Residual_add _ ->
      Cpu.elementwise_cycles cpu ~elems:(Layer.out_bytes layer)
  | Layer.Max_pool p ->
      Cpu.pooling_cycles cpu ~elems:(Layer.out_bytes layer) ~window:p.Layer.window
  | Layer.Global_avg_pool { g_h; g_w; g_ch } ->
      Cpu.elementwise_cycles cpu ~elems:(g_h * g_w * g_ch)
  | Layer.Elementwise { e_elems; _ } -> Cpu.elementwise_cycles cpu ~elems:e_elems

let cpu_only_cycles cpu model =
  Gem_util.Mathx.sum_list
    (List.map (fun (_, l) -> cpu_layer_cycles cpu l) model.Layer.layers)

(* --- im2col placement ---------------------------------------------------------- *)

type im2col_choice = Im_cpu | Im_accel | Im_pre

(* Functional runs must materialize the patch matrix (real data); timing
   runs use the hardware block when the mode asks for it and the instance
   has one, else fall back to a host im2col pass. *)
let resolve_im2col p ~mode ~functional =
  if functional then Im_pre
  else
    match mode with
    | Cpu_only -> Im_cpu
    | Accel { im2col_on_accel } ->
        if im2col_on_accel && p.Gemmini.Params.has_im2col then Im_accel
        else Im_cpu

(* --- abstract kernel shapes ---------------------------------------------------- *)

type matmul_shape = {
  ms_m : int;
  ms_k : int;
  ms_n : int;
  ms_schedule : Schedule.t;
  ms_bias : [ `Broadcast | `Column | `None ];
  ms_a_stride : int;
  ms_b_stride : int;
  ms_c_stride : int;
  ms_a_condense : float;
}

type host_work = { hw_cycles : int; hw_tag : string }

type kernel =
  | K_host of host_work
  | K_matmul of {
      prep : host_work option;
      a : [ `Input | `Patches | `Weights ];
      shape : matmul_shape;
      count : int;
    }
  | K_resadd of { elems : int }
  | K_maxpool of { spec : Layer.pool_spec }

type layer_plan = {
  lp_name : string;
  lp_class : Layer.klass;
  lp_macs : int;
  lp_span : string option;
  lp_kernel : kernel;
  lp_cpu_cycles : int;
}

let matmul_shape p ?schedule ?(bias = `None) ?c_stride ?(a_condense = 1.0) ~m
    ~k ~n () =
  {
    ms_m = m;
    ms_k = k;
    ms_n = n;
    ms_schedule =
      (match schedule with Some s -> s | None -> Schedule.choose p ~m ~k ~n);
    ms_bias = bias;
    ms_a_stride = k;
    ms_b_stride = n;
    ms_c_stride = Option.value c_stride ~default:n;
    ms_a_condense = a_condense;
  }

let host cpu_cycles tag = K_host { hw_cycles = cpu_cycles; hw_tag = tag }

(* [cpu_cycles] is the layer's software cost: the whole layer under
   [Cpu_only], and the host fallback of a layer the accelerator cannot
   run (element-wise ops, global average pooling, max-pool without a
   pooling unit). *)
let plan_layer p ~cpu ~mode ~functional ~cpu_cycles layer =
  match (mode, layer) with
  | Cpu_only, _ -> (None, host cpu_cycles "cpu-layer")
  | Accel _, Layer.Elementwise { e_name; _ } ->
      (Some e_name, host cpu_cycles e_name)
  | Accel _, Layer.Global_avg_pool _ -> (Some "gap", host cpu_cycles "gap")
  | Accel _, Layer.Max_pool spec ->
      if p.Gemmini.Params.has_pooling then (Some "maxpool", K_maxpool { spec })
      else (Some "maxpool", host cpu_cycles "maxpool(cpu)")
  | Accel _, Layer.Residual_add { r_h; r_w; r_ch; _ } ->
      (Some "resadd", K_resadd { elems = r_h * r_w * r_ch })
  | Accel _, Layer.Conv spec ->
      let im2col = resolve_im2col p ~mode ~functional in
      let oh, ow = Layer.conv_out_dims spec in
      let m = oh * ow and kk = spec.Layer.kernel * spec.Layer.kernel in
      (* A depthwise conv is one skinny matmul per channel (M = output
         pixels, K = kernel^2, N = 1, NHWC channel-strided output): low
         reuse and a mostly-idle array — the MobileNetV2 bottleneck the
         paper calls out. Every channel shares one shape and schedule. *)
      let k, n, c_stride, count, raw_elems, tag =
        let pixels = spec.Layer.in_h * spec.Layer.in_w in
        if spec.Layer.depthwise then
          (kk, 1, spec.Layer.in_ch, spec.Layer.in_ch, pixels, "im2col(cpu,dw)")
        else
          ( kk * spec.Layer.in_ch,
            spec.Layer.out_ch,
            spec.Layer.out_ch,
            1,
            pixels * spec.Layer.in_ch,
            "im2col(cpu)" )
      in
      let prep, a, a_condense =
        match im2col with
        | Im_cpu ->
            ( Some
                {
                  hw_cycles = Cpu.im2col_cycles cpu ~patch_elems:(m * k * count);
                  hw_tag = tag;
                },
              `Patches,
              1.0 )
        | Im_pre -> (None, `Patches, 1.0)
        | Im_accel ->
            (* The im2col unit expands on the fly: the A loads read only
               the raw input footprint. *)
            ( None,
              `Input,
              min 1.0 (float_of_int raw_elems /. float_of_int (m * k)) )
      in
      let shape =
        matmul_shape p ~bias:`Broadcast ~c_stride ~a_condense ~m ~k ~n ()
      in
      (Some "conv", K_matmul { prep; a; shape; count })
  | Accel _, Layer.Matmul mm ->
      (* Batch-1 GEMMs run transposed (C^T = W^T . x) so the big weight
         operand streams through pages sequentially instead of
         page-strided; the bias then varies per output row. *)
      let a, shape =
        if mm.Layer.m = 1 then
          (`Weights, matmul_shape p ~bias:`Column ~m:mm.Layer.n ~k:mm.Layer.k ~n:1 ())
        else
          ( `Input,
            matmul_shape p ~bias:`Broadcast ~m:mm.Layer.m ~k:mm.Layer.k
              ~n:mm.Layer.n () )
      in
      (Some "matmul", K_matmul { prep = None; a; shape; count = mm.Layer.count })

let plan ?(functional = false) p ~cpu ~mode model =
  List.map
    (fun (name, layer) ->
      let cpu_cycles = cpu_layer_cycles cpu layer in
      let span, kernel = plan_layer p ~cpu ~mode ~functional ~cpu_cycles layer in
      {
        lp_name = name;
        lp_class = Layer.class_of layer;
        lp_macs = Layer.macs layer;
        lp_span = span;
        lp_kernel = kernel;
        lp_cpu_cycles = cpu_cycles;
      })
    model.Layer.layers
