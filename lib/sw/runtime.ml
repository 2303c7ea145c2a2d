open Gem_util
open Gem_dnn
module Soc = Gem_soc.Soc
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

let rec guarded_exec soc guard core op =
  match op with
  | Soc.Compute_run r when Option.is_some guard.g_watchdog ->
      (* The watchdog is checked before every command, so it trips at the
         same command whether or not the commands arrive as one run.
         Without one, the run is one attempt: it touches no memory, so
         nothing in it can page-fault or bus-error and ask for a
         re-issue. *)
      Gemmini.Tiled_matmul.run_commands r (fun i ->
          attempt soc guard core (Soc.Insn i) ~reissues:0)
  | _ -> attempt soc guard core op ~reissues:0

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
        match (l, Layer.as_matmul l) with
        | Layer.Conv _, Some mm -> max acc (mm.Layer.m * mm.Layer.k * mm.Layer.count)
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

(* A layer whose planned A operand is its weights (the transposed batch-1
   GEMM) stores them transposed. *)
let write_weights soc core tensors ~seed model plan =
  List.iteri
    (fun i (_, l) ->
      match Layer.as_matmul l with
      | None -> ()
      | Some mm ->
          let rows = mm.Layer.k and cols = mm.Layer.n in
          let total = mm.Layer.count in
          let transposed =
            match plan.(i).Lower.lp_kernel with
            | Lower.K_matmul { a = `Weights; _ } -> true
            | _ -> false
          in
          for inst = 0 to total - 1 do
            let w = gen_weight_matrix ~seed ~idx:((i * 131) + inst) ~rows ~cols in
            let w = if transposed then Matrix.transpose w else w in
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
   execute the identical op stream with no event allocation. Each is one
   marker step of the program. *)
let marker f = Kernels.single (Soc.Marker f)

let span_open_marker ~cat ~name time_of =
  marker (fun core ->
      let ctrl = Soc.controller core in
      Span.emit_open
        (Gemmini.Controller.engine ctrl)
        ~component:(Gemmini.Controller.host_component ctrl)
        ~time:(time_of ctrl) ~cat name)

let span_close_marker ~name time_of =
  marker (fun core ->
      let ctrl = Soc.controller core in
      Span.emit_close
        (Gemmini.Controller.engine ctrl)
        ~component:(Gemmini.Controller.host_component ctrl)
        ~time:(time_of ctrl) name)

(* --- per-layer lowering ---------------------------------------------------------

   A layer lowers to a short list of pieces — its markers and kernels,
   each a [Kernels.steps] — that a [Soc.program] expands one step at a
   time. *)

(* A kernel span opens at the issue cursor (dispatch of the kernel's first
   command) and closes at the finish horizon once its commands retire. *)
let kernel_span name pieces =
  (span_open_marker ~cat:"kernel" ~name Gemmini.Controller.now :: pieces)
  @ [ span_close_marker ~name Gemmini.Controller.finish_time ]

let host_piece (hw : Lower.host_work) =
  Kernels.single (Soc.Host_work { cycles = hw.Lower.hw_cycles; tag = hw.Lower.hw_tag })

(* Functional-mode data staging: the host moves the real data of a layer
   the timing model prices without it, in a marker ahead of the layer's
   commands. *)
let staging soc tensors ~idx ~input_va layer =
  let out_va = tensors.t_out.(idx) in
  match layer with
  | Layer.Elementwise { e_elems; _ } ->
      Some
        (fun core ->
          (* Host ops are identity passes in the functional model. *)
          let data = Soc.host_read_i8 soc core ~vaddr:input_va ~n:e_elems in
          Soc.host_write_i8 soc core ~vaddr:out_va data)
  | Layer.Global_avg_pool { g_h; g_w; g_ch } ->
      Some
        (fun core ->
          let t = read_tensor soc core ~vaddr:input_va ~shape:[| 1; g_h; g_w; g_ch |] in
          write_tensor soc core ~vaddr:out_va (Gemmini.Peripheral.avg_pool_global t))
  | Layer.Max_pool p ->
      Some
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
  | Layer.Conv spec ->
      let patch_va = tensors.t_patch.(idx) in
      Some
        (fun core ->
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
  | Layer.Matmul _ | Layer.Residual_add _ -> None

(* The pieces of one planned layer: any functional staging ([staged]),
   then the plan's kernel over this layer's tensor addresses under its
   kernel span. *)
let layer_pieces soc core tensors ~staged ~idx ~input_va layer
    (lp : Lower.layer_plan) =
  let params = Gemmini.Controller.params (Soc.controller core) in
  let out_va = tensors.t_out.(idx) in
  let spanned pieces =
    match lp.Lower.lp_span with
    | None -> pieces
    | Some name -> kernel_span name pieces
  in
  let act relu =
    if relu then Gemmini.Peripheral.Relu else Gemmini.Peripheral.No_activation
  in
  let kernel =
    match (layer, lp.Lower.lp_kernel) with
    | Layer.Max_pool _, _ when staged ->
        (* The staging marker pools on the host: no pooling commands. *)
        []
    | _, Lower.K_host hw -> spanned [ host_piece hw ]
    | _, Lower.K_maxpool { spec } ->
        spanned [ Kernels.maxpool_steps params ~input:input_va ~out:out_va ~spec ]
    | Layer.Residual_add { back1; back2; _ }, Lower.K_resadd { elems } ->
        let operand back =
          let j = idx - back in
          if j < 0 then tensors.t_input else tensors.t_out.(j)
        in
        spanned
          [
            Kernels.resadd_steps params ~x:(operand back1) ~y:(operand back2)
              ~out:out_va ~elems ();
          ]
    | Layer.Conv spec, Lower.K_matmul { prep; a; shape; count } ->
        (* Instance [ch] is depthwise channel [ch] (a standard conv has
           the one instance 0); one kernel span covers them all. *)
        let m = shape.Lower.ms_m and k = shape.Lower.ms_k in
        let channel ch =
          let a_va =
            match a with
            | `Input ->
                input_va
                + (ch * spec.Layer.in_h * spec.Layer.in_w / max 1 spec.Layer.in_ch)
            | `Patches | `Weights -> tensors.t_patch.(idx) + (ch * m * k)
          in
          Kernels.matmul_steps params
            ~bias:(tensors.t_bias.(idx) + (4 * ch))
            ~act:(act spec.Layer.relu) ~scale:out_scale ~a:a_va
            ~b:(tensors.t_weights.(idx) + (ch * k))
            ~out:(out_va + ch) shape
        in
        (* Each channel's steps are built only once its piece is reached. *)
        spanned
          (Option.to_list (Option.map host_piece prep)
          @ List.init count (fun ch () -> channel ch ()))
    | Layer.Matmul mm, Lower.K_matmul { a; shape; count; _ } ->
        (* One kernel span per batched instance. The transposed batch-1
           GEMM streams the weights as A and the input vector as B. *)
        let instance i =
          let x = input_va + (i * mm.Layer.m * mm.Layer.k)
          and w = tensors.t_weights.(idx) + (i * mm.Layer.k * mm.Layer.n) in
          let a_va, b_va =
            match a with `Weights -> (w, x) | `Input | `Patches -> (x, w)
          in
          spanned
            [
              Kernels.matmul_steps params
                ~bias:(tensors.t_bias.(idx) + (4 * mm.Layer.n * i))
                ~act:(act mm.Layer.relu) ~scale:out_scale ~a:a_va ~b:b_va
                ~out:(out_va + (i * mm.Layer.m * mm.Layer.n))
                shape;
            ]
        in
        List.concat_map instance (List.init count Fun.id)
    | _, (Lower.K_resadd _ | Lower.K_matmul _) ->
        invalid_arg "Runtime: layer plan does not match its layer"
  in
  match if staged then staging soc tensors ~idx ~input_va layer else None with
  | Some stage -> marker stage :: kernel
  | None -> kernel

(* The program over pre-allocated tensors, as the lazy pieces a
   [Soc.program] expands one tile step at a time: the shared core of
   one-shot runs ([plan_with] allocates then lowers) and serving
   re-entry ([request_steps] allocates once per session, then lowers per
   request). [pieces] is lazy, so a layer lowers only once the previous
   layer's pieces are spent.
   [rebase] prepends a zero-cost marker that rebases the per-layer cycle
   accounting on the core's finish horizon at execution time — a request
   dispatched mid-run then reports layer cycles relative to its own start
   rather than to cycle 0. *)
let network_pieces ?(start_layer = 0) ?(resume_finish = 0) ?(rebase = false)
    ?on_layer soc core model ~mode ~records ~guard ~tensors ~plan =
  (* Functional runs stage real data around accelerator layers; a
     software-only run has no accelerator layer to stage for. *)
  let staged =
    Option.is_some (Soc.mainmem soc)
    && match mode with Accel _ -> true | Cpu_only -> false
  in
  let layers = Array.of_list model.Layer.layers in
  let last_finish = ref resume_finish in
  let lower idx =
    let name, layer = layers.(idx) in
    let lp = plan.(idx) in
    let input_va = if idx = 0 then tensors.t_input else tensors.t_out.(idx - 1) in
    (* The layer span opens at the previous layer's finish horizon (the
       same base lr_cycles measures from), so layer slices tile the
       timeline without overlap. *)
    let layer_open =
      span_open_marker ~cat:"layer" ~name Gemmini.Controller.finish_time
    in
    let finish_marker =
      marker (fun core ->
          let ctrl = Soc.controller core in
          let f = Gemmini.Controller.finish_time ctrl in
          Span.emit_close
            (Gemmini.Controller.engine ctrl)
            ~component:(Gemmini.Controller.host_component ctrl)
            ~time:f name;
          records :=
            {
              lr_name = name;
              lr_class = lp.Lower.lp_class;
              lr_cycles = f - !last_finish;
              lr_macs = lp.Lower.lp_macs;
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
          [
            marker (fun core ->
                g.g_layer <- name;
                g.g_layer_cpu <- lp.Lower.lp_cpu_cycles;
                g.g_layer_start <-
                  Gemmini.Controller.finish_time (Soc.controller core);
                g.g_skip <- false);
            layer_open;
          ]
    in
    head
    @ layer_pieces soc core tensors ~staged ~idx ~input_va layer lp
    @ [ Kernels.single Kernels.fence; finish_marker ]
  in
  let net_name = model.Layer.model_name in
  (* The whole program sits under one network-level span. A resumed run
     does not re-open it: the interrupted run already emitted the open
     event, so emitting it again would open the span twice and break
     byte-identity. *)
  let prologue =
    (if rebase then
       [
         marker (fun core ->
             last_finish := Gemmini.Controller.finish_time (Soc.controller core));
       ]
     else [])
    @
    if start_layer = 0 then
      [ span_open_marker ~cat:"network" ~name:net_name Gemmini.Controller.finish_time ]
    else []
  in
  let body =
    Seq.init (max 0 (Array.length layers - start_layer)) (( + ) start_layer)
    |> Seq.flat_map (fun idx -> List.to_seq (lower idx))
  in
  Seq.append (List.to_seq prologue)
    (Seq.append body
       (Seq.return (span_close_marker ~name:net_name Gemmini.Controller.finish_time)))

(* The one lowering decision of an inference: [Lower]'s plan for this
   core's instance, functional when the SoC carries data. *)
let plan_model soc core model ~mode =
  Array.of_list
    (Lower.plan
       ~functional:(Option.is_some (Soc.mainmem soc))
       (Gemmini.Controller.params (Soc.controller core))
       ~cpu:(Soc.cpu core) ~mode model)

let plan_with ?start_layer ?resume_finish ?on_layer soc core model ~mode
    ~records ~guard =
  (* Tensor allocation always covers the WHOLE network, even when
     execution starts mid-way: the bump allocators are deterministic, so
     a resumed run recomputes the exact addresses of the interrupted one
     and the restored snapshot's mappings line up. *)
  let functional = Option.is_some (Soc.mainmem soc) in
  let tensors = allocate_tensors soc core model ~functional in
  network_pieces ?start_layer ?resume_finish ?on_layer soc core model ~mode
    ~records ~guard ~tensors ~plan:(plan_model soc core model ~mode)

let plan_ops soc core model ~mode ~records =
  Soc.op_seq (plan_with soc core model ~mode ~records ~guard:None)

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
  se_plan : Lower.layer_plan array;
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
    se_plan = plan_model soc core model ~mode;
  }

let session_core s = s.se_core

let request_steps session ~records =
  network_pieces ~rebase:true session.se_soc session.se_core session.se_model
    ~mode:session.se_mode ~records ~guard:None ~tensors:session.se_tensors
    ~plan:session.se_plan

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

(* [Soc.run_parallel] runs program i on core i: every run, one core or
   many, goes through it, and a core without a program of its own gets an
   empty one, which ends at once. *)
let run_on_cores soc programs =
  let n = Array.fold_left (fun acc (i, _) -> max acc (i + 1)) 0 programs in
  let padded = Array.init n (fun _ -> Soc.program Seq.empty) in
  Array.iter (fun (i, p) -> padded.(i) <- p) programs;
  Soc.run_parallel soc padded

(* One network on core [i] under its own recovery state: its guarded
   program, how to close its spans when a trap cuts the run, and its
   result from the core's finish time. *)
let job ?start_layer ?resume_finish ?on_layer ?(records = ref []) ~policy
    ~watchdog soc i model ~mode =
  let guard = make_guard ~policy ~watchdog in
  let pieces =
    plan_with ?start_layer ?resume_finish ?on_layer soc (Soc.core soc i) model
      ~mode ~records ~guard:(Some guard)
  in
  ( (i, Soc.program ~guard:(guarded_exec soc guard) pieces),
    (fun () ->
      close_spans_on_abort (Soc.core soc i) guard model.Layer.model_name),
    fun finishes ->
      make_result soc i model mode !records finishes.(i)
        ~faults:guard.g_faults )

let execute soc jobs =
  match run_on_cores soc (Array.map (fun (p, _, _) -> p) jobs) with
  | finishes -> Array.map (fun (_, _, result) -> result finishes) jobs
  | exception Fault.Trap f ->
      (* Close the faulting core's open spans; the other cores' streams
         were cut mid-flight, so close theirs too. *)
      Array.iter (fun (_, abort, _) -> abort ()) jobs;
      raise (Fault.Trap f)

(* Jobs [(core, model, mode)], each under its own recovery state. *)
let run_jobs ~policy ~watchdog ?prepare ?(start_layer = 0) ?resume ?on_layer
    soc jobs =
  let prior_records, resume_finish =
    match resume with None -> ([], 0) | Some (rs, f) -> (rs, f)
  in
  let jobs =
    Array.map
      (fun (core, model, mode) ->
        (* [records] accumulates most-recent-first; seed it with the
           salvaged prefix so the final result covers the whole network. *)
        job ~start_layer ~resume_finish ?on_layer
          ~records:(ref (List.rev prior_records))
          ~policy ~watchdog soc core model ~mode)
      jobs
  in
  (* Tensors are allocated by now; [prepare] can perturb the address
     space (e.g. unmap pages) or restore a snapshot before the first
     command issues. *)
  Option.iter (fun f -> f ()) prepare;
  execute soc jobs

let run ?(policy = Abort) ?watchdog soc ~core model ~mode =
  (run_jobs ~policy ~watchdog soc [| (core, model, mode) |]).(0)

let run_parallel ?(policy = Abort) ?watchdog ?prepare ?start_layer ?resume
    ?on_layer soc jobs =
  run_jobs ~policy ~watchdog ?prepare ?start_layer ?resume ?on_layer soc
    (Array.mapi (fun i (model, mode) -> (i, model, mode)) jobs)

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
  let tensors = allocate_tensors soc core model ~functional:true in
  let mode = Accel { im2col_on_accel = false } in
  let plan = plan_model soc core model ~mode in
  let pieces =
    network_pieces soc core model ~mode ~records:(ref []) ~guard:None ~tensors
      ~plan
  in
  write_weights soc core tensors ~seed model plan;
  write_tensor soc core ~vaddr:tensors.t_input input;
  ignore (run_on_cores soc [| (core_idx, Soc.program pieces) |]);
  (* Read back the final output with the golden model's shape. *)
  let reference_shape =
    Tensor.shape (reference_inference model ~input ~seed)
  in
  let n = List.length model.Layer.layers in
  read_tensor soc core ~vaddr:(tensors.t_out.(n - 1)) ~shape:reference_shape
