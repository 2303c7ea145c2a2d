open Gem_util
open Gem_dnn
module Soc = Gem_soc.Soc
module Cpu = Gem_cpu.Cpu_model
module P = Gem_obs.Profile
module Fault = Gem_sim.Fault

(* The mode (and every other backend-agnostic lowering decision) lives in
   [Lower]; re-exported here so existing [Runtime.Accel]/[Runtime.Cpu_only]
   users keep working. *)
type mode = Lower.mode = Accel of { im2col_on_accel : bool } | Cpu_only

let mode_desc = Lower.mode_desc

type policy = Abort | Retry_map | Degrade | Resume_checkpoint

let policy_desc = function
  | Abort -> "abort"
  | Retry_map -> "retry-map"
  | Degrade -> "degrade"
  | Resume_checkpoint -> "resume-checkpoint"

type fault_record = {
  fr_fault : Fault.t;
  fr_layer : string;
  fr_action : string;
}

type layer_record = {
  lr_name : string;
  lr_class : Layer.klass;
  lr_cycles : Gem_sim.Time.cycles;
  lr_macs : int;
}

type result = {
  r_model : string;
  r_mode : string;
  r_core : int;
  r_total_cycles : Gem_sim.Time.cycles;
  r_layers : layer_record list;
  r_profile : Gem_sim.Engine.stat list;
  r_faults : fault_record list;
}

let cycles_by_class r =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun lr ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt tbl lr.lr_class) in
      Hashtbl.replace tbl lr.lr_class (prev + lr.lr_cycles))
    r.r_layers;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

(* Backend-independent run metrics: the cycle engine and the analytic
   estimator both produce [result]s, so a snapshot works on either. *)
let register_metrics reg (r : result) =
  let module M = Gem_obs.Metrics in
  let pre = Printf.sprintf "runtime.core%d." r.r_core in
  M.int reg (pre ^ "total_cycles") r.r_total_cycles;
  M.int reg (pre ^ "layers") (List.length r.r_layers);
  M.int reg (pre ^ "faults") (List.length r.r_faults);
  List.iter
    (fun (k, c) -> M.int reg (pre ^ "class." ^ Layer.class_name k) c)
    (cycles_by_class r)

(* Fixed requantization scale applied by every MAC layer's store path (and
   by the golden model): int32 accumulator -> int8 activation. *)
let out_scale = 0.0625

(* Deterministic test weights. *)
let weight_rng ~seed ~idx = Rng.create ~seed:((seed * 7919) + idx)

let gen_weight_matrix ~seed ~idx ~rows ~cols =
  Matrix.random (weight_rng ~seed ~idx) ~rows ~cols ~lo:(-8) ~hi:8

let gen_bias ~seed ~idx ~n =
  let rng = Rng.create ~seed:((seed * 104729) + idx + 1) in
  Array.init n (fun _ -> Rng.int_in rng ~lo:(-128) ~hi:128)

(* --- CPU-only costs (shared with the analytic backend via Lower) ------------ *)

let cpu_layer_cycles = Lower.cpu_layer_cycles
let cpu_only_cycles = Lower.cpu_only_cycles

(* --- fault policies ---------------------------------------------------------- *)

(* Per-core recovery state threaded through the guarded op stream. The
   fields describing the current layer are set by a zero-cost begin
   marker, so recovery actions (CPU fallback cost, fault attribution)
   know which layer trapped without any timing impact on clean runs. *)
type guard = {
  g_policy : policy;
  g_watchdog : int option;  (** max cycles a single layer may spend *)
  mutable g_layer : string;
  mutable g_layer_cpu : int;  (** CPU-kernel cost of the layer (Degrade) *)
  mutable g_layer_start : Gem_sim.Time.cycles;
  mutable g_skip : bool;  (** degraded: drain this layer's remaining ops *)
  mutable g_faults : fault_record list;
}

let make_guard ~policy ~watchdog =
  {
    g_policy = policy;
    g_watchdog = watchdog;
    g_layer = "";
    g_layer_cpu = 0;
    g_layer_start = 0;
    g_skip = false;
    g_faults = [];
  }

let watchdog_check guard core =
  match guard.g_watchdog with
  | None -> ()
  | Some limit ->
      let ctrl = Soc.controller core in
      let spent = Gemmini.Controller.finish_time ctrl - guard.g_layer_start in
      if spent > limit then
        Gem_sim.Engine.trap
          (Gemmini.Controller.engine ctrl)
          (Fault.make ~core:(Soc.core_id core)
             ~component:(Printf.sprintf "core%d/host" (Soc.core_id core))
             ~cycle:(Gemmini.Controller.now ctrl)
             (Fault.Watchdog_timeout { limit; spent }))

(* Consecutive re-issues of one command Retry_map allows before it gives
   up as Abort would. At injection rates near 1 the re-rolled fault fires
   again on nearly every attempt, so an unbounded retry never ends; clean
   runs and low rates never come close to the cap. *)
let max_reissues = 64

let rec guarded_exec soc guard core op = attempt soc guard core op ~reissues:0

and attempt soc guard core op ~reissues =
  try
    if guard.g_skip then
      (* Degraded layer: its remaining accelerator ops are dropped; the
         layer-boundary fence still executes so downstream layers stay
         ordered behind whatever was in flight when the layer trapped. *)
      match op with
      | Soc.Insn Gemmini.Isa.Fence -> Soc.exec_op core op
      | _ -> ()
    else begin
      watchdog_check guard core;
      Soc.exec_op core op
    end
  with Fault.Trap f -> handle_trap soc guard core op ~reissues f

and handle_trap soc guard core op ~reissues (f : Fault.t) =
  let record action =
    guard.g_faults <-
      { fr_fault = f; fr_layer = guard.g_layer; fr_action = action }
      :: guard.g_faults
  in
  match (guard.g_policy, f.Fault.cause) with
  | Abort, _ ->
      record "abort";
      raise (Fault.Trap f)
  | Retry_map, Fault.Page_fault { vpn; _ } when reissues < max_reissues ->
      (* The host's page-fault handler: map (or swap back in) the
         faulting page, then re-issue the whole command. *)
      record "remap";
      Soc.map_page soc core ~vaddr:(vpn * Gem_vm.Page_table.page_size);
      attempt soc guard core op ~reissues:(reissues + 1)
  | Retry_map, Fault.Dma_bus_error _ when reissues < max_reissues ->
      (* Transient bus error: re-issue. Injection re-rolls on the retry,
         so with a low rate this converges. *)
      record "retry";
      attempt soc guard core op ~reissues:(reissues + 1)
  | Retry_map, _ ->
      (* Not a recoverable-by-retry condition (illegal instruction,
         out-of-bounds, watchdog) or out of re-issues: give up as Abort
         would. *)
      record "abort";
      raise (Fault.Trap f)
  | Degrade, _ ->
      (* CPU-kernel fallback: charge the host the software cost of the
         whole layer and drop its remaining accelerator ops. *)
      record "degrade";
      guard.g_skip <- true;
      Gemmini.Controller.host_work (Soc.controller core)
        ~cycles:guard.g_layer_cpu
  | Resume_checkpoint, _ ->
      (* Recovery happens above the runtime: the checkpointing driver
         (Gem_persist) catches the escaping trap and replays from the
         last snapshot. Here we only record and unwind. *)
      record "resume-checkpoint";
      raise (Fault.Trap f)

(* --- planning --------------------------------------------------------------- *)

type tensors = {
  t_out : int array;  (** output VA per layer index *)
  t_weights : int array;
  t_bias : int array;
  t_patch : int array;  (** per-layer patch VA (functional) or shared scratch *)
  t_input : int;  (** VA of the network input *)
}

let page = 4096

let allocate_tensors soc core model ~functional =
  let layers = Array.of_list model.Layer.layers in
  let n = Array.length layers in
  let alloc bytes = Soc.alloc soc core ~bytes:(bytes + page) in
  let first_in_bytes =
    match layers with
    | [||] -> page
    | _ -> Layer.in_bytes (snd layers.(0))
  in
  let t_input = alloc (max page first_in_bytes) in
  let t_out = Array.make n 0 in
  let t_weights = Array.make n 0 in
  let t_bias = Array.make n 0 in
  let t_patch = Array.make n 0 in
  (* Shared patch scratch for timing mode: sized for the largest conv. *)
  let max_patch =
    Array.fold_left
      (fun acc (_, l) ->
        match l with
        | Layer.Conv c ->
            (match Layer.as_matmul l with
            | Some mm ->
                let per = mm.Layer.m * mm.Layer.k * mm.Layer.count in
                max acc (if c.Layer.depthwise then per else per)
            | None -> acc)
        | _ -> acc)
      0 layers
  in
  let shared_patch = if max_patch > 0 then alloc max_patch else 0 in
  Array.iteri
    (fun i (_, l) ->
      t_out.(i) <- alloc (max 16 (Layer.out_bytes l));
      let wb = Layer.weight_bytes l in
      if wb > 0 then t_weights.(i) <- alloc wb;
      (match Layer.as_matmul l with
      | Some mm ->
          t_bias.(i) <- alloc (4 * mm.Layer.n * mm.Layer.count)
      | None -> ());
      t_patch.(i) <-
        (match l with
        | Layer.Conv _ when functional ->
            (match Layer.as_matmul l with
            | Some mm -> alloc (mm.Layer.m * mm.Layer.k * mm.Layer.count)
            | None -> 0)
        | Layer.Conv _ -> shared_patch
        | _ -> 0))
    layers;
  { t_out; t_weights; t_bias; t_patch; t_input }

(* Functional-mode data staging helpers. *)

(* Batch-1 GEMMs are emitted transposed (see Lower.swapped_matmul); the
   weights of such layers are therefore stored transposed. *)
let swapped_matmul = Lower.swapped_matmul

let write_weights soc core tensors ~seed model =
  List.iteri
    (fun i (_, l) ->
      match Layer.as_matmul l with
      | None -> ()
      | Some mm ->
          let rows = mm.Layer.k and cols = mm.Layer.n in
          let total = mm.Layer.count in
          for inst = 0 to total - 1 do
            let w = gen_weight_matrix ~seed ~idx:((i * 131) + inst) ~rows ~cols in
            let w = if swapped_matmul l then Matrix.transpose w else w in
            let flat = Array.concat (Array.to_list w) in
            Soc.host_write_i8 soc core
              ~vaddr:(tensors.t_weights.(i) + (inst * rows * cols))
              flat
          done;
          let bias = gen_bias ~seed ~idx:i ~n:(cols * total) in
          Soc.host_write_i32 soc core ~vaddr:(tensors.t_bias.(i)) bias)
    model.Layer.layers

let read_tensor soc core ~vaddr ~shape =
  let n = Array.fold_left ( * ) 1 shape in
  let data = Soc.host_read_i8 soc core ~vaddr ~n in
  let t = Tensor.create shape in
  Array.blit data 0 (Tensor.data t) 0 n;
  t

let write_tensor soc core ~vaddr t =
  Soc.host_write_i8 soc core ~vaddr (Tensor.data t)

(* --- span markers ------------------------------------------------------------ *)

module Span = Gem_sim.Span

(* Zero-cost observability hooks: each marker reads the controller clock
   and emits a span event only when the engine is live, so unobserved runs
   execute the identical op stream with no event allocation. *)
let span_open_marker ~cat ~name time_of =
  Soc.Marker
    (fun core ->
      let ctrl = Soc.controller core in
      Span.emit_open
        (Gemmini.Controller.engine ctrl)
        ~component:(Gemmini.Controller.host_component ctrl)
        ~time:(time_of ctrl) ~cat name)

let span_close_marker ~name time_of =
  Soc.Marker
    (fun core ->
      let ctrl = Soc.controller core in
      Span.emit_close
        (Gemmini.Controller.engine ctrl)
        ~component:(Gemmini.Controller.host_component ctrl)
        ~time:(time_of ctrl) name)

(* --- per-layer emission ------------------------------------------------------

   A layer's ops are built in one pass onto a single reversed accumulator
   ([acc], most recent op first): every emitter below, like the kernels'
   [*_rev] forms, returns [acc] extended with its own ops. The caller
   reverses the finished layer once. *)

(* A kernel span opens at the issue cursor (dispatch of the kernel's first
   command) and closes at the finish horizon once its commands retire. A
   kernel that emits nothing gets no span. *)
let kernel_span name emit acc =
  let opened =
    span_open_marker ~cat:"kernel" ~name Gemmini.Controller.now :: acc
  in
  let body = emit opened in
  if body == opened then acc
  else span_close_marker ~name Gemmini.Controller.finish_time :: body

let layer_rev soc core tensors ~mode ~functional ~idx ~input_va layer acc =
  let params = Gemmini.Controller.params (Soc.controller core) in
  let cpu = Soc.cpu core in
  let out_va = tensors.t_out.(idx) in
  (* Functional-mode data staging runs as a host marker ahead of the
     layer's commands; timing mode emits nothing for it. *)
  let staging f acc = if functional then Soc.Marker f :: acc else acc in
  let host_work ~elems ~tag acc =
    List.rev_append (Kernels.host_elementwise_ops ~cpu ~elems ~tag) acc
  in
  match (mode, layer) with
  | Cpu_only, l ->
      Soc.Host_work { cycles = cpu_layer_cycles cpu l; tag = "cpu-layer" } :: acc
  | Accel _, Layer.Elementwise { e_elems; e_name } ->
      acc
      |> staging (fun core ->
             (* Host ops are identity passes in the functional model. *)
             let data = Soc.host_read_i8 soc core ~vaddr:input_va ~n:e_elems in
             Soc.host_write_i8 soc core ~vaddr:out_va data)
      |> kernel_span e_name (host_work ~elems:e_elems ~tag:e_name)
  | Accel _, Layer.Global_avg_pool { g_h; g_w; g_ch } ->
      acc
      |> staging (fun core ->
             let t = read_tensor soc core ~vaddr:input_va ~shape:[| 1; g_h; g_w; g_ch |] in
             write_tensor soc core ~vaddr:out_va (Gemmini.Peripheral.avg_pool_global t))
      |> kernel_span "gap" (host_work ~elems:(g_h * g_w * g_ch) ~tag:"gap")
  | Accel _, Layer.Max_pool p ->
      if functional then
        Soc.Marker
          (fun core ->
            let t =
              read_tensor soc core ~vaddr:input_va
                ~shape:[| 1; p.Layer.p_in_h; p.Layer.p_in_w; p.Layer.p_ch |]
            in
            let pooled =
              Gemmini.Peripheral.max_pool ~window:p.Layer.window
                ~stride:p.Layer.p_stride ~padding:p.Layer.p_padding t
            in
            write_tensor soc core ~vaddr:out_va pooled)
        :: acc
      else
        kernel_span "maxpool"
          (fun acc ->
            Kernels.maxpool_rev params ~cpu ~input:input_va ~out:out_va ~spec:p acc)
          acc
  | Accel _, Layer.Residual_add { r_h; r_w; r_ch; back1; back2 } ->
      let operand back =
        let j = idx - back in
        if j < 0 then tensors.t_input else tensors.t_out.(j)
      in
      kernel_span "resadd"
        (fun acc ->
          Kernels.resadd_rev params ~x:(operand back1) ~y:(operand back2)
            ~out:out_va
            ~elems:(r_h * r_w * r_ch)
            acc)
        acc
  | Accel { im2col_on_accel }, Layer.Conv spec ->
      let patch_va = tensors.t_patch.(idx) in
      let im2col : Kernels.conv_im2col =
        match
          Lower.resolve_im2col params ~mode:(Accel { im2col_on_accel })
            ~functional
        with
        | Lower.Im_pre -> Kernels.Im2col_preexpanded patch_va
        | Lower.Im_accel -> Kernels.Im2col_on_accel
        | Lower.Im_cpu -> Kernels.Im2col_on_cpu
      in
      acc
      |> staging (fun core ->
             (* Materialize the patch matrix so the datapath reads real
                data; the hardware im2col block is modeled in timing mode
                only. *)
             let t =
               read_tensor soc core ~vaddr:input_va
                 ~shape:[| 1; spec.Layer.in_h; spec.Layer.in_w; spec.Layer.in_ch |]
             in
             if spec.Layer.depthwise then begin
               let mk = Layer.as_matmul layer |> Option.get in
               let per = mk.Layer.m * mk.Layer.k in
               for ch = 0 to spec.Layer.in_ch - 1 do
                 let chan =
                   Tensor.init [| 1; spec.Layer.in_h; spec.Layer.in_w; 1 |]
                     (fun i -> Tensor.get4 t 0 i.(1) i.(2) ch)
                 in
                 let patch =
                   Gemmini.Peripheral.im2col ~input:chan ~kernel:spec.Layer.kernel
                     ~stride:spec.Layer.stride ~padding:spec.Layer.padding
                 in
                 let flat = Array.concat (Array.to_list patch) in
                 Soc.host_write_i8 soc core ~vaddr:(patch_va + (ch * per)) flat
               done
             end
             else begin
               let patch =
                 Gemmini.Peripheral.im2col ~input:t ~kernel:spec.Layer.kernel
                   ~stride:spec.Layer.stride ~padding:spec.Layer.padding
               in
               let flat = Array.concat (Array.to_list patch) in
               Soc.host_write_i8 soc core ~vaddr:patch_va flat
             end)
      |> kernel_span "conv" (fun acc ->
             Kernels.conv_rev params ~cpu ~im2col ~bias:(tensors.t_bias.(idx))
               ~scale:out_scale ~input:input_va ~weights:(tensors.t_weights.(idx))
               ~out:out_va ~spec ~patch_scratch:tensors.t_patch.(idx) acc)
  | Accel _, Layer.Matmul mm ->
      let act =
        if mm.Layer.relu then Gemmini.Peripheral.Relu
        else Gemmini.Peripheral.No_activation
      in
      let instance acc i =
        kernel_span "matmul"
          (fun acc ->
           if mm.Layer.m = 1 then
             (* C^T = W^T . x: the transposed weight matrix is the
                streaming A operand (page-sequential rows); x and C^T are
                flat vectors, so no data movement changes. Bias becomes
                per-row, which the store path cannot broadcast — the
                kernel biases through the accumulator mvin channel all
                the same because each output block row sees its own bias
                word. For the swapped layout the bias is added via a
                host-free accumulate mvin of the bias vector
                reinterpreted column-wise. *)
             Kernels.matmul_rev params
               ~bias_column:(tensors.t_bias.(idx) + (4 * mm.Layer.n * i))
               ~act ~scale:out_scale
               ~a:(tensors.t_weights.(idx) + (i * mm.Layer.k * mm.Layer.n))
               ~b:(input_va + (i * mm.Layer.m * mm.Layer.k))
               ~out:(out_va + (i * mm.Layer.m * mm.Layer.n))
               ~m:mm.Layer.n ~k:mm.Layer.k ~n:1 acc
           else
             Kernels.matmul_rev params
               ~bias:(tensors.t_bias.(idx) + (4 * mm.Layer.n * i))
               ~act ~scale:out_scale
               ~a:(input_va + (i * mm.Layer.m * mm.Layer.k))
               ~b:(tensors.t_weights.(idx) + (i * mm.Layer.k * mm.Layer.n))
               ~out:(out_va + (i * mm.Layer.m * mm.Layer.n))
               ~m:mm.Layer.m ~k:mm.Layer.k ~n:mm.Layer.n acc)
          acc
      in
      let acc = ref acc in
      for i = 0 to mm.Layer.count - 1 do
        acc := instance !acc i
      done;
      !acc

(* Reverses a finished layer, wrapping every accelerator op in [Guarded]
   with the run's one trap handler as it goes; markers stay bare (they
   are host code, not commands). [tail] is appended unchanged. *)
let rec rev_guarded run acc tail =
  match acc with
  | [] -> tail
  | (Soc.Marker _ as m) :: rest -> rev_guarded run rest (m :: tail)
  | op :: rest -> rev_guarded run rest (Soc.Guarded { op; run } :: tail)

(* The program stream walks each layer's finished list directly: layer
   [idx + 1] is lowered only once layer [idx]'s ops are exhausted, so one
   layer's list is live at a time, and the stream adds one node per op. *)
let layers_stream ~first ~last layer tail =
  let rec walk ops idx () =
    match ops with
    | op :: rest -> Seq.Cons (op, walk rest idx)
    | [] -> if idx >= last then tail () else walk (layer idx) (idx + 1) ()
  in
  walk [] first

(* Emission over pre-allocated tensors: the shared core of one-shot plans
   ([plan_ops_with] allocates then emits) and serving re-entry
   ([request_ops] allocates once per session, then emits per request).
   [rebase] prepends a zero-cost marker that rebases the per-layer cycle
   accounting on the core's finish horizon at execution time — a request
   dispatched mid-run then reports layer cycles relative to its own start
   rather than to cycle 0. *)
let network_ops ?(start_layer = 0) ?(resume_finish = 0) ?(rebase = false)
    ?on_layer soc core model ~mode ~records ~guard ~tensors =
  let functional = Option.is_some (Soc.mainmem soc) in
  let layers = Array.of_list model.Layer.layers in
  let cpu = Soc.cpu core in
  let last_finish = ref resume_finish in
  (* Guarded stream: every accelerator op routes through [guarded_exec]
     under this one handler. Plan-level markers (functional-mode data
     staging) run unguarded — they are host code, not accelerator
     commands. All wrapping is zero-cost, so clean runs are
     cycle-identical to unguarded ones. *)
  let run = Option.map (fun g -> guarded_exec soc g) guard in
  let emit_layer_quiet idx =
    let name, layer = layers.(idx) in
    let input_va = if idx = 0 then tensors.t_input else tensors.t_out.(idx - 1) in
    (* The layer span opens at the previous layer's finish horizon (the
       same base lr_cycles measures from), so layer slices tile the
       timeline without overlap. *)
    let layer_open =
      span_open_marker ~cat:"layer" ~name Gemmini.Controller.finish_time
    in
    let finish_marker =
      Soc.Marker
        (fun core ->
          let ctrl = Soc.controller core in
          let f = Gemmini.Controller.finish_time ctrl in
          Span.emit_close
            (Gemmini.Controller.engine ctrl)
            ~component:(Gemmini.Controller.host_component ctrl)
            ~time:f name;
          records :=
            {
              lr_name = name;
              lr_class = Layer.class_of layer;
              lr_cycles = f - !last_finish;
              lr_macs = Layer.macs layer;
            }
            :: !records;
          last_finish := f;
          (* The fence just ran, so the pipeline is quiesced: this is the
             one point where a snapshot of the SoC is meaningful. *)
          match on_layer with
          | None -> ()
          | Some cb -> cb ~layer:idx ~records:(List.rev !records) ~finish:f)
    in
    let head =
      match guard with
      | None -> [ layer_open ]
      | Some g ->
          (* A begin marker arms the per-layer recovery state. *)
          let begin_marker =
            Soc.Marker
              (fun core ->
                g.g_layer <- name;
                g.g_layer_cpu <- cpu_layer_cycles cpu layer;
                g.g_layer_start <-
                  Gemmini.Controller.finish_time (Soc.controller core);
                g.g_skip <- false)
          in
          [ begin_marker; layer_open ]
    in
    let acc =
      Kernels.fence
      :: layer_rev soc core tensors ~mode ~functional ~idx ~input_va layer head
    in
    match run with
    | None -> List.rev_append acc [ finish_marker ]
    | Some run -> rev_guarded run acc [ finish_marker ]
  in
  (* Lowering is forced lazily between dispatches (Seq consumption), so
     it sits outside the soc.dispatch probe and needs its own. *)
  let emit_layer idx =
    if !P.on then begin
      P.enter P.lowering;
      let ops = emit_layer_quiet idx in
      P.leave P.lowering;
      ops
    end
    else emit_layer_quiet idx
  in
  let net_name = model.Layer.model_name in
  let body =
    layers_stream ~first:start_layer ~last:(Array.length layers) emit_layer
      (Seq.return
         (span_close_marker ~name:net_name Gemmini.Controller.finish_time))
  in
  (* The whole program sits under one network-level span. A resumed run
     does not re-open it: the open event is already in the restored trace
     ring, so re-emitting would double it and break byte-identity. *)
  let body =
    if start_layer = 0 then
      Seq.cons
        (span_open_marker ~cat:"network" ~name:net_name
           Gemmini.Controller.finish_time)
        body
    else body
  in
  if rebase then
    Seq.cons
      (Soc.Marker
         (fun core ->
           last_finish := Gemmini.Controller.finish_time (Soc.controller core)))
      body
  else body

let plan_ops_with ?start_layer ?resume_finish ?on_layer soc core model ~mode
    ~records ~guard =
  (* Tensor allocation always covers the WHOLE network, even when
     execution starts mid-way: the bump allocators are deterministic, so
     a resumed run recomputes the exact addresses of the interrupted one
     and the restored snapshot's mappings line up. *)
  let functional = Option.is_some (Soc.mainmem soc) in
  let tensors = allocate_tensors soc core model ~functional in
  network_ops ?start_layer ?resume_finish ?on_layer soc core model ~mode
    ~records ~guard ~tensors

let plan_ops soc core model ~mode ~records =
  plan_ops_with soc core model ~mode ~records ~guard:None

(* --- serving re-entry --------------------------------------------------------- *)

(* A session pins one model to one core with its tensors allocated exactly
   once; every subsequent request re-executes the network over the same
   virtual addresses (weights resident, activation buffers reused), the
   way a warm inference server never re-loads a model per request. *)
type session = {
  se_soc : Soc.t;
  se_core : Soc.core;
  se_model : Layer.model;
  se_mode : mode;
  se_tensors : tensors;
}

let make_session soc ~core:core_idx model ~mode =
  let core = Soc.core soc core_idx in
  let functional = Option.is_some (Soc.mainmem soc) in
  {
    se_soc = soc;
    se_core = core;
    se_model = model;
    se_mode = mode;
    se_tensors = allocate_tensors soc core model ~functional;
  }

let session_core s = s.se_core
let session_model s = s.se_model

let request_ops session ~records =
  network_ops ~rebase:true session.se_soc session.se_core session.se_model
    ~mode:session.se_mode ~records ~guard:None ~tensors:session.se_tensors

let make_result soc core_id model mode records total ~faults =
  {
    r_model = model.Layer.model_name;
    r_mode = mode_desc mode;
    r_core = core_id;
    r_total_cycles = total;
    r_layers = List.rev records;
    r_profile = Gem_sim.Engine.stats (Soc.engine soc);
    r_faults = List.rev faults;
  }

(* When a trap escapes the fault policy, the op stream is abandoned past
   its layer/network close markers. Emit those closes here so every abort
   path leaves a well-formed span tree (the network span in particular
   always carries an end stamp); a skipping close force-closes any open
   kernel/command spans underneath, which the recorder counts without
   orphaning. *)
let close_spans_on_abort core guard net_name =
  (* An empty g_layer means no guarded op ever ran on this core — the
     network span may not have opened yet, so emitting closes could only
     orphan. Leave whatever is open to Span.finalize. *)
  if guard.g_layer <> "" then begin
    let ctrl = Soc.controller core in
    let engine = Gemmini.Controller.engine ctrl in
    let component = Gemmini.Controller.host_component ctrl in
    let time = Gemmini.Controller.finish_time ctrl in
    Span.emit_close engine ~component ~time guard.g_layer;
    Span.emit_close engine ~component ~time net_name
  end

let run ?(policy = Abort) ?watchdog ?prepare ?(start_layer = 0) ?resume
    ?on_layer soc ~core:core_idx model ~mode =
  let core = Soc.core soc core_idx in
  let prior_records, resume_finish =
    match resume with None -> ([], 0) | Some (rs, f) -> (rs, f)
  in
  (* [records] accumulates most-recent-first; seed it with the salvaged
     prefix so the final result covers the whole network. *)
  let records = ref (List.rev prior_records) in
  let guard = make_guard ~policy ~watchdog in
  let ops =
    plan_ops_with ~start_layer ~resume_finish ?on_layer soc core model ~mode
      ~records ~guard:(Some guard)
  in
  (* Tensors are allocated by now; [prepare] can perturb the address
     space (e.g. unmap pages) or restore a snapshot before the first
     command issues. *)
  (match prepare with Some f -> f core | None -> ());
  let total =
    try Soc.run_program soc core ops
    with Fault.Trap f ->
      close_spans_on_abort core guard model.Layer.model_name;
      raise (Fault.Trap f)
  in
  make_result soc core_idx model mode !records total ~faults:guard.g_faults

let run_parallel ?(policy = Abort) ?watchdog ?(domains = 1) soc jobs =
  let programs =
    Array.mapi
      (fun i (model, mode) ->
        let core = Soc.core soc i in
        let records = ref [] in
        let guard = make_guard ~policy ~watchdog in
        let ops =
          plan_ops_with soc core model ~mode ~records ~guard:(Some guard)
        in
        (records, guard, ops))
      jobs
  in
  let finishes =
    try
      Soc.run_parallel ~domains soc
        (Array.map (fun (_, _, ops) -> ops) programs)
    with Fault.Trap f ->
      (* Close the faulting core's open spans; the other cores' streams
         were cut mid-flight, so close theirs too. *)
      Array.iteri
        (fun i (model, _) ->
          let _, guard, _ = programs.(i) in
          close_spans_on_abort (Soc.core soc i) guard model.Layer.model_name)
        jobs;
      raise (Fault.Trap f)
  in
  Array.mapi
    (fun i (model, mode) ->
      let records, guard, _ = programs.(i) in
      make_result soc i model mode !records finishes.(i)
        ~faults:guard.g_faults)
    jobs

(* --- functional execution and the golden model ------------------------------- *)

let act_fn relu v = if relu then Gemmini.Peripheral.apply_activation Gemmini.Peripheral.Relu v else v

let requantize ~relu v =
  act_fn relu (Gemmini.Peripheral.scale_to Gemmini.Dtype.Int8 ~scale:out_scale v)

let reference_inference model ~input ~seed =
  let layers = Array.of_list model.Layer.layers in
  let outputs = Array.make (Array.length layers) input in
  let current = ref input in
  Array.iteri
    (fun idx (_, layer) ->
      let inp = if idx = 0 then input else !current in
      let out =
        match layer with
        | Layer.Conv spec ->
            let oh, ow = Layer.conv_out_dims spec in
            if spec.Layer.depthwise then begin
              let k2 = spec.Layer.kernel * spec.Layer.kernel in
              let out = Tensor.create [| 1; oh; ow; spec.Layer.in_ch |] in
              for ch = 0 to spec.Layer.in_ch - 1 do
                let chan =
                  Tensor.init [| 1; spec.Layer.in_h; spec.Layer.in_w; 1 |]
                    (fun i -> Tensor.get4 inp 0 i.(1) i.(2) ch)
                in
                let patch =
                  Gemmini.Peripheral.im2col ~input:chan ~kernel:spec.Layer.kernel
                    ~stride:spec.Layer.stride ~padding:spec.Layer.padding
                in
                let w = gen_weight_matrix ~seed ~idx:((idx * 131) + ch) ~rows:k2 ~cols:1 in
                let bias = gen_bias ~seed ~idx ~n:spec.Layer.in_ch in
                let prod = Matrix.mul_sat32 patch w in
                for px = 0 to (oh * ow) - 1 do
                  let v = Fixed.sat32 (Matrix.get prod px 0 + bias.(ch)) in
                  Tensor.set4 out 0 (px / ow) (px mod ow) ch
                    (requantize ~relu:spec.Layer.relu v)
                done
              done;
              out
            end
            else begin
              let patch =
                Gemmini.Peripheral.im2col ~input:inp ~kernel:spec.Layer.kernel
                  ~stride:spec.Layer.stride ~padding:spec.Layer.padding
              in
              let k = spec.Layer.kernel * spec.Layer.kernel * spec.Layer.in_ch in
              let w = gen_weight_matrix ~seed ~idx:(idx * 131) ~rows:k ~cols:spec.Layer.out_ch in
              let bias = gen_bias ~seed ~idx ~n:spec.Layer.out_ch in
              let prod = Matrix.mul_sat32 patch w in
              Tensor.init [| 1; oh; ow; spec.Layer.out_ch |] (fun i ->
                  let px = (i.(1) * ow) + i.(2) in
                  let v = Fixed.sat32 (Matrix.get prod px i.(3) + bias.(i.(3))) in
                  requantize ~relu:spec.Layer.relu v)
            end
        | Layer.Matmul mm ->
            if mm.Layer.count <> 1 then
              invalid_arg "Runtime.reference_inference: batched matmul unsupported";
            let a =
              Matrix.init ~rows:mm.Layer.m ~cols:mm.Layer.k (fun r c ->
                  (Tensor.data inp).((r * mm.Layer.k) + c))
            in
            let w = gen_weight_matrix ~seed ~idx:(idx * 131) ~rows:mm.Layer.k ~cols:mm.Layer.n in
            let bias = gen_bias ~seed ~idx ~n:mm.Layer.n in
            let prod = Matrix.mul_sat32 a w in
            Tensor.init [| mm.Layer.m; mm.Layer.n |] (fun i ->
                let v = Fixed.sat32 (Matrix.get prod i.(0) i.(1) + bias.(i.(1))) in
                requantize ~relu:mm.Layer.relu v)
        | Layer.Residual_add { back1; back2; _ } ->
            let operand back = if idx - back < 0 then input else outputs.(idx - back) in
            let x = operand back1 and y = operand back2 in
            let xd = Tensor.data x and yd = Tensor.data y in
            let t = Tensor.create (Tensor.shape x) in
            let td = Tensor.data t in
            for i = 0 to Array.length td - 1 do
              td.(i) <- Fixed.sat8 (xd.(i) + yd.(i))
            done;
            t
        | Layer.Max_pool p ->
            Gemmini.Peripheral.max_pool ~window:p.Layer.window ~stride:p.Layer.p_stride
              ~padding:p.Layer.p_padding inp
        | Layer.Global_avg_pool _ -> Gemmini.Peripheral.avg_pool_global inp
        | Layer.Elementwise _ -> inp
      in
      outputs.(idx) <- out;
      current := out)
    layers;
  !current

let run_functional soc ~core:core_idx model ~input ~seed =
  if Option.is_none (Soc.mainmem soc) then
    invalid_arg "Runtime.run_functional: SoC is not functional";
  let core = Soc.core soc core_idx in
  let records = ref [] in
  (* Allocation happens inside plan_ops; stage input and weights before
     executing. The tensors record is recomputed identically because the
     bump allocator is deterministic — so instead we plan first, then pull
     the input VA from the plan via a prelude marker. *)
  let mode = Accel { im2col_on_accel = false } in
  let tensors_ref = ref None in
  let ops =
    (* Re-implement plan_ops with access to tensors: allocate here, then
       reuse the internal emission path. *)
    let functional = true in
    let tensors = allocate_tensors soc core model ~functional in
    tensors_ref := Some tensors;
    let layers = Array.of_list model.Layer.layers in
    let last_finish = ref 0 in
    let emit_layer idx =
      let name, layer = layers.(idx) in
      let input_va = if idx = 0 then tensors.t_input else tensors.t_out.(idx - 1) in
      let finish_marker =
        Soc.Marker
          (fun core ->
            let f = Gemmini.Controller.finish_time (Soc.controller core) in
            records :=
              {
                lr_name = name;
                lr_class = Layer.class_of layer;
                lr_cycles = f - !last_finish;
                lr_macs = Layer.macs layer;
              }
              :: !records;
            last_finish := f)
      in
      List.rev_append
        (Kernels.fence
        :: layer_rev soc core tensors ~mode ~functional ~idx ~input_va layer [])
        [ finish_marker ]
    in
    layers_stream ~first:0 ~last:(Array.length layers) emit_layer Seq.empty
  in
  let tensors = Option.get !tensors_ref in
  write_weights soc core tensors ~seed model;
  write_tensor soc core ~vaddr:tensors.t_input input;
  ignore (Soc.run_program soc core ops);
  (* Read back the final output with the golden model's shape. *)
  let reference_shape =
    Tensor.shape (reference_inference model ~input ~seed)
  in
  let n = List.length model.Layer.layers in
  read_tensor soc core ~vaddr:(tensors.t_out.(n - 1)) ~shape:reference_shape
