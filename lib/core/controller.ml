open Gem_util
open Gem_sim

(* The staged configuration and preload state are mutable records the
   controller owns for its whole life: config, Preload and Compute
   commands update them in place rather than allocating a fresh record
   per command on the dispatch path. *)
type ex_cfg = {
  mutable dataflow : [ `WS | `OS ];
  mutable activation : Peripheral.activation;
  mutable sys_shift : int;
  mutable a_transpose : bool;
  mutable b_transpose : bool;
}

type ld_cfg = { mutable stride : int; mutable scale : float; mutable shrunk : bool }

type st_cfg = {
  mutable st_stride : int;
  mutable st_act : Peripheral.activation;
  mutable st_scale : float;
  mutable st_pool : Isa.pool_cfg option;
}

type preload_state = {
  mutable pl_staged : bool;  (** a Preload has executed *)
  mutable pl_bd : Local_addr.t;
  mutable pl_c : Local_addr.t;
  mutable pl_bd_rows : int;
  mutable pl_bd_cols : int;
  mutable pl_c_rows : int;
  mutable pl_c_cols : int;
}

type os_resident = { os_data : Matrix.t; os_dest : Local_addr.t }

type mutable_stats = {
  mutable insns : int;
  mutable loop_micro_ops : int;
  mutable loads : int;
  mutable stores : int;
  mutable computes : int;
  mutable macs : int;
  mutable host_cycles : int;
  mutable flushes : int;
}

type t = {
  p : Params.t;
  name : string;
  host : string; (* host-interface component name: <name>/host *)
  core : int;
  engine : Engine.t;
  spad : Scratchpad.t;
  mesh : Mesh.t;
  dma : Dma.t;
  functional : bool;
  mutable issue_cycles : int;
  (* configuration state *)
  ex_cfg : ex_cfg;
  ld_cfgs : ld_cfg array; (* three mvin channels *)
  st_cfg : st_cfg;
  preload : preload_state;
  mutable loop_bounds : Isa.loop_bounds option;
  mutable loop_addrs : Isa.loop_addrs option;
  mutable loop_outs : Isa.loop_outs option;
  mutable resident_b : Matrix.t option; (* WS: weights currently in PEs *)
  mutable os_acc : os_resident option; (* OS: results resident in PEs *)
  (* The decoupled pipelines are engine-owned resources; their busy_until
     is the old ld_free/ex_free/st_free. *)
  ld_pipe : Resource.t;
  ex_pipe : Resource.t;
  st_pipe : Resource.t;
  (* issue cursor and data-landing high-water marks *)
  mutable issue : Time.cycles;
  mutable last_ld_finish : Time.cycles;
  mutable last_st_finish : Time.cycles;
  (* retire high-water mark of the command currently executing; the close
     stamp of its span *)
  mutable cmd_finish : Time.cycles;
  (* in-order retirement buffer, a preallocated ring of max_in_flight+1
     finish times (a Queue cell per retired command was the hottest
     allocation in the issue path). [rob_head] indexes the oldest. *)
  rob : Time.cycles array;
  mutable rob_head : int;
  mutable rob_len : int;
  s : mutable_stats;
}

let flush_cost = 10

let create ?engine ?(name = "accel") ?(core = 0) ~params ~port ~tlb
    ~issue_cycles () =
  let p = Params.validate_exn params in
  let engine = match engine with Some e -> e | None -> Engine.create () in
  let s =
    {
      insns = 0;
      loop_micro_ops = 0;
      loads = 0;
      stores = 0;
      computes = 0;
      macs = 0;
      host_cycles = 0;
      flushes = 0;
    }
  in
  Engine.register_probe engine ~kind:Engine.Host ~name:(name ^ "/host")
    ~sample:(fun () ->
      {
        Engine.p_requests = s.insns;
        p_busy = s.host_cycles;
        p_wait = 0;
        p_note =
          Printf.sprintf "%s insns, %s loop micro-ops"
            (Gem_util.Table.fmt_int s.insns)
            (Gem_util.Table.fmt_int s.loop_micro_ops);
      });
  (* Explicit lets fix the registry order: pipes, then DMA, then the
     scratchpad banks. *)
  let ld_pipe = Engine.resource engine ~kind:Engine.Pipeline ~name:(name ^ "/ld") in
  let ex_pipe = Engine.resource engine ~kind:Engine.Pipeline ~name:(name ^ "/mesh") in
  let st_pipe = Engine.resource engine ~kind:Engine.Pipeline ~name:(name ^ "/st") in
  let dma = Dma.create ~engine ~name:(name ^ "/dma") ~core p ~port ~tlb in
  let functional = Option.is_some port.Dma.read_data in
  let spad =
    Scratchpad.create ~engine ~name:(name ^ "/spad") ~core ~functional p
  in
  {
    p;
    name;
    host = name ^ "/host";
    core;
    engine;
    spad;
    (* The mesh shares the ex-pipe's registry name so its faults land in
       that profile row (it registers no resource of its own). *)
    mesh = Mesh.create ~engine ~name:(name ^ "/mesh") ~core p;
    dma;
    functional;
    issue_cycles;
    ex_cfg =
      {
        dataflow = (if Dataflow.supports p.Params.dataflow `WS then `WS else `OS);
        activation = Peripheral.No_activation;
        sys_shift = 0;
        a_transpose = false;
        b_transpose = false;
      };
    ld_cfgs = Array.init 3 (fun _ -> { stride = 0; scale = 1.0; shrunk = false });
    st_cfg =
      { st_stride = 0; st_act = Peripheral.No_activation; st_scale = 1.0; st_pool = None };
    preload =
      {
        pl_staged = false;
        pl_bd = Local_addr.garbage;
        pl_c = Local_addr.garbage;
        pl_bd_rows = 0;
        pl_bd_cols = 0;
        pl_c_rows = 0;
        pl_c_cols = 0;
      };
    loop_bounds = None;
    loop_addrs = None;
    loop_outs = None;
    resident_b = None;
    os_acc = None;
    ld_pipe;
    ex_pipe;
    st_pipe;
    issue = 0;
    last_ld_finish = 0;
    last_st_finish = 0;
    cmd_finish = 0;
    rob = Array.make (p.Params.max_in_flight + 1) 0;
    rob_head = 0;
    rob_len = 0;
    s;
  }

let params t = t.p
let engine t = t.engine
let scratchpad t = t.spad
let dma t = t.dma
let tlb t = Dma.tlb t.dma

let now t = t.issue

(* Dispatch-stage faults are attributed to the host-interface component:
   the RoCC queue is where a malformed command is caught. *)
let trap t cause =
  Engine.trap t.engine
    (Fault.make ~core:t.core ~component:t.host ~cycle:t.issue cause)

let host_component t = t.host

let finish_time t =
  Mathx.imax3 t.last_ld_finish
    (Resource.busy_until t.ex_pipe)
    (Mathx.imax3 t.last_st_finish
       (Resource.busy_until t.st_pipe)
       (Int.max (Resource.busy_until t.ld_pipe) t.issue))

let set_issue_cycles t n = t.issue_cycles <- n

let host_work t ~cycles =
  if cycles < 0 then invalid_arg "Controller.host_work: negative cycles";
  (* The host cannot run ahead while its accelerator queue is full either,
     but host work itself simply occupies the issue cursor. *)
  t.issue <- t.issue + cycles;
  t.s.host_cycles <- t.s.host_cycles + cycles

let advance_to t ~cycle =
  (* Idle time, not work: the issue cursor moves forward but no host
     cycles are charged and no resource is occupied. A serving core
     parked between request arrivals burns wall-clock, not utilization. *)
  if cycle > t.issue then t.issue <- cycle

let rob_clear t =
  t.rob_head <- 0;
  t.rob_len <- 0

(* [rob_head + rob_len] < 2 * cap, so one conditional subtraction wraps
   an index: no division per retired command. *)
let retire t finish =
  if finish > t.cmd_finish then t.cmd_finish <- finish;
  let cap = Array.length t.rob in
  let tail = t.rob_head + t.rob_len in
  t.rob.(if tail >= cap then tail - cap else tail) <- finish;
  t.rob_len <- t.rob_len + 1;
  if t.rob_len > t.p.Params.max_in_flight then begin
    let oldest = t.rob.(t.rob_head) in
    let head = t.rob_head + 1 in
    t.rob_head <- (if head = cap then 0 else head);
    t.rob_len <- t.rob_len - 1;
    if oldest > t.issue then t.issue <- oldest
  end

(* --- functional helpers ------------------------------------------------- *)

let elem_bytes t la =
  if Local_addr.is_accumulator la then Dtype.bytes t.p.Params.acc_type
  else Dtype.bytes t.p.Params.input_type

(* Convert DMA bytes to stored elements. Scratchpad rows store input-type
   values (sign-extended); accumulator rows store acc-type values
   (little-endian). *)
let bytes_to_elems la ~cols (bytes : int array) =
  if Local_addr.is_accumulator la then
    Array.init cols (fun i ->
        let b0 = bytes.(4 * i)
        and b1 = bytes.((4 * i) + 1)
        and b2 = bytes.((4 * i) + 2)
        and b3 = bytes.((4 * i) + 3) in
        let v = b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24) in
        (v lsl (Sys.int_size - 32)) asr (Sys.int_size - 32))
  else
    Array.init cols (fun i ->
        let b = bytes.(i) in
        if b >= 128 then b - 256 else b)

let elems_to_bytes la (elems : int array) =
  if Local_addr.is_accumulator la then begin
    let out = Array.make (4 * Array.length elems) 0 in
    Array.iteri
      (fun i v ->
        out.(4 * i) <- v land 0xFF;
        out.((4 * i) + 1) <- (v asr 8) land 0xFF;
        out.((4 * i) + 2) <- (v asr 16) land 0xFF;
        out.((4 * i) + 3) <- (v asr 24) land 0xFF)
      elems;
    out
  end
  else Array.map (fun v -> v land 0xFF) elems

(* --- command handlers ---------------------------------------------------- *)

let do_mvin t (mv : Isa.mv) id =
  t.s.loads <- t.s.loads + 1;
  let cfg = t.ld_cfgs.(id) in
  let eb = if cfg.shrunk then Dtype.bytes t.p.Params.input_type else elem_bytes t mv.Isa.local in
  let row_bytes = mv.Isa.cols * eb in
  let stride = cfg.stride in
  let start = Resource.next_free t.ld_pipe ~now:t.issue in
  let rows_data =
    Dma.mvin t.dma ~now:start ~vaddr:mv.Isa.dram_addr ~stride_bytes:stride
      ~rows:mv.Isa.rows ~row_bytes
  in
  if t.functional then begin
    let dim = Params.dim_cols t.p in
    Array.iteri
      (fun r bytes ->
        let src_la =
          (* shrunk loads carry input-type bytes even into the accumulator *)
          if cfg.shrunk then Local_addr.scratchpad ~row:0 else mv.Isa.local
        in
        let elems = bytes_to_elems src_la ~cols:mv.Isa.cols bytes in
        let elems =
          if cfg.scale = 1.0 then elems
          else
            Array.map
              (fun v ->
                Peripheral.scale_to
                  (if Local_addr.is_accumulator mv.Isa.local then
                     t.p.Params.acc_type
                   else t.p.Params.input_type)
                  ~scale:cfg.scale v)
              elems
        in
        (* A wide mvin (cols > DIM) fills [cols/DIM] adjacent DIM-blocks:
           row r of block b lands at local + b*DIM + r, exactly like the
           hardware's MAX_BLOCK_LEN moves. *)
        let nblocks = Mathx.ceil_div mv.Isa.cols dim in
        for b = 0 to nblocks - 1 do
          let lo = b * dim in
          let len = min dim (mv.Isa.cols - lo) in
          Scratchpad.write_row t.spad mv.Isa.local
            ~offset:((b * dim) + r)
            (Array.sub elems lo len)
        done)
      rows_data
  end;
  (* The engine streams on; only consumers of the data wait for it. *)
  let finish = Dma.finish t.dma in
  Engine.occupy t.engine t.ld_pipe ~now:t.issue ~start
    ~until:(Dma.engine_free t.dma);
  t.last_ld_finish <- Int.max t.last_ld_finish finish;
  retire t finish

let apply_store_path t (elems : int array) =
  (* Accumulator read-out: scale to input type, then activation. *)
  Array.map
    (fun v ->
      let scaled = Peripheral.scale_to t.p.Params.input_type ~scale:t.st_cfg.st_scale v in
      Peripheral.apply_activation t.st_cfg.st_act scaled)
    elems

let do_mvout t (mv : Isa.mv) =
  t.s.stores <- t.s.stores + 1;
  let full = Local_addr.full_width_flag mv.Isa.local in
  let out_eb =
    if Local_addr.is_accumulator mv.Isa.local && not full then
      Dtype.bytes t.p.Params.input_type
    else elem_bytes t mv.Isa.local
  in
  let row_bytes = mv.Isa.cols * out_eb in
  let stride = t.st_cfg.st_stride in
  (* Stores read data produced by computes (matmul C tiles) or by earlier
     loads (resadd accumulator contents), so they wait on both pipes. *)
  let ready =
    Mathx.imax3 t.issue (Resource.busy_until t.ex_pipe) t.last_ld_finish
  in
  let start = Resource.next_free t.st_pipe ~now:ready in
  if t.functional then begin
    let rows_data =
      Array.init mv.Isa.rows (fun r ->
          let elems = Scratchpad.read_row t.spad mv.Isa.local ~offset:r in
          let elems = Array.sub elems 0 mv.Isa.cols in
          let elems =
            if Local_addr.is_accumulator mv.Isa.local && not full then
              apply_store_path t elems
            else elems
          in
          let out_la =
            (* Encode destination element width through the address the
               bytes are derived from: scaled-down rows leave as input
               type. *)
            if Local_addr.is_accumulator mv.Isa.local && not full then
              Local_addr.scratchpad ~row:0
            else mv.Isa.local
          in
          elems_to_bytes out_la elems)
    in
    Dma.mvout t.dma ~now:start ~vaddr:mv.Isa.dram_addr ~stride_bytes:stride
      ~rows_data ~row_bytes
  end
  else
    Dma.mvout_timing_rows t.dma ~now:start ~vaddr:mv.Isa.dram_addr
      ~stride_bytes:stride ~rows:mv.Isa.rows ~row_bytes;
  let finish = Dma.finish t.dma in
  Engine.occupy t.engine t.st_pipe ~now:ready ~start
    ~until:(Dma.engine_free t.dma);
  t.last_st_finish <- Int.max t.last_st_finish finish;
  retire t finish

let do_preload t ~b ~c ~b_rows ~b_cols ~c_rows ~c_cols =
  (* In OS mode a new preload flushes the resident result tile first. *)
  (match (t.ex_cfg.dataflow, t.os_acc) with
  | `OS, Some { os_data; os_dest } ->
      if t.functional && not (Local_addr.is_garbage os_dest) then begin
        let scaled =
          if Local_addr.is_accumulator os_dest then os_data
          else
            Matrix.map
              (fun v ->
                Dtype.saturate t.p.Params.input_type
                  (Fixed.rounding_shift v t.ex_cfg.sys_shift))
              os_data
        in
        Scratchpad.write_block t.spad os_dest scaled
      end;
      t.os_acc <- None
  | _ -> ());
  let pl = t.preload in
  pl.pl_staged <- true;
  pl.pl_bd <- b;
  pl.pl_c <- c;
  pl.pl_bd_rows <- b_rows;
  pl.pl_bd_cols <- b_cols;
  pl.pl_c_rows <- c_rows;
  pl.pl_c_cols <- c_cols;
  retire t t.issue

let read_block_or_zeros t la ~rows ~cols =
  if Local_addr.is_garbage la then Matrix.create ~rows ~cols
  else Scratchpad.read_block t.spad la ~rows ~cols

(* A compute's operands come as fields, not an [Isa.compute_args]: a
   compute run issues its commands without building their records. *)
let do_compute t ~a ~bd ~a_rows ~a_cols ~bd_rows ~bd_cols ~preloaded =
  t.s.computes <- t.s.computes + 1;
  let dim = Params.dim t.p in
  let a_rows = Int.min a_rows dim and a_cols = Int.min a_cols dim in
  match t.ex_cfg.dataflow with
  | `WS ->
      let pl = t.preload in
      if not pl.pl_staged then
        trap t (Fault.Illegal_inst "WS compute without preload");
      let k = a_cols and out_cols = pl.pl_c_cols in
      let cycles =
        Mesh.pipelined_block_cycles t.p ~dataflow:`WS ~rows:a_rows ~k
          ~cols:out_cols ~preload:preloaded
      in
      let ex_done =
        Engine.acquire t.engine t.ex_pipe
          ~now:(Int.max t.issue t.last_ld_finish)
          ~occupancy:cycles
      in
      t.s.macs <- t.s.macs + (a_rows * k * out_cols);
      if t.functional then begin
        let b =
          if preloaded then begin
            let b =
              read_block_or_zeros t pl.pl_bd ~rows:pl.pl_bd_rows
                ~cols:pl.pl_bd_cols
            in
            let b = if t.ex_cfg.b_transpose then Matrix.transpose b else b in
            t.resident_b <- Some b;
            b
          end
          else
            match t.resident_b with
            | Some b -> b
            | None ->
                trap t
                  (Fault.Illegal_inst
                     "accumulate-compute without resident weights")
        in
        let a = read_block_or_zeros t a ~rows:a_rows ~cols:a_cols in
        let a = if t.ex_cfg.a_transpose then Matrix.transpose a else a in
        let d =
          if Local_addr.is_garbage bd then None
          else
            Some
              (Scratchpad.read_block t.spad bd ~rows:(Int.min bd_rows dim)
                 ~cols:(Int.min bd_cols dim))
        in
        (* Zero-pad B to K rows if needed by taking only meaningful dims. *)
        let result =
          Mesh.run_matmul t.mesh ~dataflow:`WS ~a ~b ?d ()
        in
        if not (Local_addr.is_garbage pl.pl_c) then
          Scratchpad.write_block t.spad pl.pl_c result.Mesh.out
      end;
      if preloaded then pl.pl_bd <- Local_addr.garbage;
      retire t ex_done
  | `OS ->
      let pl = t.preload in
      if not pl.pl_staged then
        trap t (Fault.Illegal_inst "OS compute without preload");
      let k = a_cols in
      let out_rows = a_rows and out_cols = Int.min bd_cols dim in
      let cycles =
        Mesh.pipelined_block_cycles t.p ~dataflow:`OS ~rows:out_rows ~k
          ~cols:out_cols ~preload:false
      in
      let ex_done =
        Engine.acquire t.engine t.ex_pipe
          ~now:(Int.max t.issue t.last_ld_finish)
          ~occupancy:cycles
      in
      t.s.macs <- t.s.macs + (out_rows * k * out_cols);
      if t.functional then begin
        let a = read_block_or_zeros t a ~rows:out_rows ~cols:k in
        let a = if t.ex_cfg.a_transpose then Matrix.transpose a else a in
        let b =
          read_block_or_zeros t bd ~rows:(Int.min bd_rows dim) ~cols:out_cols
        in
        let b = if t.ex_cfg.b_transpose then Matrix.transpose b else b in
        let d =
          match t.os_acc with
          | Some { os_data; _ } when not preloaded -> Some os_data
          | _ ->
              if Local_addr.is_garbage pl.pl_bd then None
              else
                Some
                  (Scratchpad.read_block t.spad pl.pl_bd ~rows:pl.pl_bd_rows
                     ~cols:pl.pl_bd_cols)
        in
        let result = Mesh.run_matmul t.mesh ~dataflow:`OS ~a ~b ?d () in
        t.os_acc <- Some { os_data = result.Mesh.out; os_dest = pl.pl_c }
      end;
      retire t ex_done

let do_flush t =
  t.s.flushes <- t.s.flushes + 1;
  Gem_vm.Hierarchy.flush (tlb t);
  t.issue <- t.issue + flush_cost

let do_fence t =
  (* Drain everything; also flush an OS-resident tile to its destination. *)
  (match (t.os_acc, t.functional) with
  | Some { os_data; os_dest }, true when not (Local_addr.is_garbage os_dest) ->
      let scaled =
        if Local_addr.is_accumulator os_dest then os_data
        else
          Matrix.map
            (fun v ->
              Dtype.saturate t.p.Params.input_type
                (Fixed.rounding_shift v t.ex_cfg.sys_shift))
            os_data
      in
      Scratchpad.write_block t.spad os_dest scaled
  | _ -> ());
  t.os_acc <- None;
  t.issue <- finish_time t;
  rob_clear t

(* Per-command span support. [span_track] is the unit that services a
   command — the trace track its span lands on. Staging commands
   (configs, Preload, the three loop-configuration commands) occupy no
   unit and would only add noise at LOOP_WS micro-op volume, so they get
   no span. *)
let spanned = function
  | Isa.Mvin _ | Isa.Mvout _ | Isa.Compute_preloaded _
  | Isa.Compute_accumulated _ | Isa.Loop_ws _ | Isa.Flush | Isa.Fence ->
      true
  | Isa.Config_ex _ | Isa.Config_ld _ | Isa.Config_st _ | Isa.Preload _
  | Isa.Loop_ws_bounds _ | Isa.Loop_ws_addrs _ | Isa.Loop_ws_outs _ ->
      false

let span_track t = function
  | Isa.Mvin _ -> Resource.name t.ld_pipe
  | Isa.Mvout _ -> Resource.name t.st_pipe
  | Isa.Compute_preloaded _ | Isa.Compute_accumulated _ ->
      Resource.name t.ex_pipe
  | _ -> t.host

let span_args t cmd =
  match cmd with
  | Isa.Mvin (mv, id) ->
      [
        ("rows", string_of_int mv.Isa.rows);
        ("cols", string_of_int mv.Isa.cols);
        ("ch", string_of_int id);
      ]
  | Isa.Mvout mv ->
      [
        ("rows", string_of_int mv.Isa.rows);
        ("cols", string_of_int mv.Isa.cols);
      ]
  | Isa.Compute_preloaded args | Isa.Compute_accumulated args ->
      let dim = Params.dim t.p in
      let rows = min args.Isa.a_rows dim and k = min args.Isa.a_cols dim in
      (* Mirrors do_compute: WS output width comes from the staged
         preload, OS from the command itself. *)
      let cols =
        match t.ex_cfg.dataflow with
        | `WS when t.preload.pl_staged -> t.preload.pl_c_cols
        | _ -> min args.Isa.bd_cols dim
      in
      let preload =
        match cmd with Isa.Compute_preloaded _ -> true | _ -> false
      in
      Mesh.block_attrs ~dataflow:t.ex_cfg.dataflow ~rows ~k ~cols ~preload
  | Isa.Loop_ws _ -> (
      match t.loop_bounds with
      | Some b ->
          [
            ("m", string_of_int b.Isa.lw_m);
            ("k", string_of_int b.Isa.lw_k);
            ("n", string_of_int b.Isa.lw_n);
          ]
      | None -> [])
  | _ -> []

(* The accumulator flags of a run's C addresses, at row 0. *)
let acc_overwrite = Local_addr.accumulator ~row:0 ()
let acc_accumulate = Local_addr.accumulator ~accumulate:true ~row:0 ()

let[@inline] count t ~count_insn =
  if count_insn then t.s.insns <- t.s.insns + 1
  else t.s.loop_micro_ops <- t.s.loop_micro_ops + 1

let rec execute_with t ~issue_cost ~count_insn (cmd : Isa.t) =
  (* Validation runs before any state moves (insn counters, issue cursor):
     a trapped command has no side effects, so a recovery policy can
     repair the cause and re-issue it cleanly. *)
  (match Isa.validate t.p cmd with
  | Ok () -> ()
  | Error cause -> trap t cause);
  dispatch t ~issue_cost ~count_insn cmd

(* A command already known to be valid. *)
and dispatch t ~issue_cost ~count_insn (cmd : Isa.t) =
  count t ~count_insn;
  (* Span opens at dispatch, closes at the retire high-water mark the
     command reaches — so a span covers queueing as well as service.
     LOOP_WS micro-ops fold into the parent LOOP_WS span. A quiet run
     keeps the same [cmd_finish] and clock as an observed one. *)
  let span = count_insn && spanned cmd in
  if span then begin
    t.cmd_finish <- t.issue;
    if Engine.live t.engine then
      Engine.emit t.engine
        (Engine.Span_open
           {
             component = span_track t cmd;
             time = t.issue;
             name = Isa.mnemonic cmd;
             cat = "command";
             args = span_args t cmd;
           })
    else Engine.observe t.engine t.issue
  end;
  t.issue <- t.issue + issue_cost;
  (match cmd with
  | Isa.Config_ex c ->
      let ex = t.ex_cfg in
      ex.dataflow <- c.Isa.dataflow;
      ex.activation <- c.Isa.activation;
      ex.sys_shift <- c.Isa.sys_shift;
      ex.a_transpose <- c.Isa.a_transpose;
      ex.b_transpose <- c.Isa.b_transpose
  | Isa.Config_ld c ->
      let ld = t.ld_cfgs.(c.Isa.ld_id) in
      ld.stride <- c.Isa.ld_stride_bytes;
      ld.scale <- c.Isa.ld_scale;
      ld.shrunk <- c.Isa.ld_shrunk
  | Isa.Config_st c ->
      let st = t.st_cfg in
      st.st_stride <- c.Isa.st_stride_bytes;
      st.st_act <- c.Isa.st_activation;
      st.st_scale <- c.Isa.st_scale;
      st.st_pool <- c.Isa.st_pool
  | Isa.Mvin (mv, id) -> do_mvin t mv id
  | Isa.Mvout mv -> do_mvout t mv
  | Isa.Preload { b; c; b_cols; b_rows; c_cols; c_rows } ->
      do_preload t ~b ~c ~b_rows ~b_cols ~c_rows ~c_cols
  | Isa.Compute_preloaded { a; bd; a_cols; a_rows; bd_cols; bd_rows } ->
      do_compute t ~a ~bd ~a_rows ~a_cols ~bd_rows ~bd_cols ~preloaded:true
  | Isa.Compute_accumulated { a; bd; a_cols; a_rows; bd_cols; bd_rows } ->
      do_compute t ~a ~bd ~a_rows ~a_cols ~bd_rows ~bd_cols ~preloaded:false
  | Isa.Loop_ws_bounds b -> t.loop_bounds <- Some b
  | Isa.Loop_ws_addrs a -> t.loop_addrs <- Some a
  | Isa.Loop_ws_outs o -> t.loop_outs <- Some o
  | Isa.Loop_ws strides -> loop_ws t strides
  | Isa.Flush -> do_flush t
  | Isa.Fence -> do_fence t);
  if span then begin
    let time = Int.max t.issue t.cmd_finish in
    if Engine.live t.engine then
      Engine.emit t.engine
        (Engine.Span_close
           { component = span_track t cmd; time; name = Isa.mnemonic cmd })
    else Engine.observe t.engine time
  end

(* --- the LOOP_WS hardware sequencer ----------------------------------------

   Mirrors Gemmini's LoopMatmul.scala: once the host has staged bounds,
   operand addresses and output addresses with the three configuration
   commands, a single LOOP_WS executes the whole double-buffered tiled
   matmul — the software library's schedule ({!Tiled_matmul}), with
   weight-stationary dataflow, a broadcast bias and A fetched as
   addressed. Sub-commands are issued by the sequencer at one cycle each
   instead of the host's RoCC dispatch cost — the point of the CISC
   extension. A tile too large for the instance traps at its first
   out-of-range sub-command. *)
and loop_ws t (strides : Isa.loop_strides) =
  let bounds =
    match t.loop_bounds with
    | Some b -> b
    | None -> trap t (Fault.Illegal_inst "LOOP_WS without LOOP_WS_CONFIG_BOUNDS")
  in
  let addrs =
    match t.loop_addrs with
    | Some a -> a
    | None -> trap t (Fault.Illegal_inst "LOOP_WS without LOOP_WS_CONFIG_ADDRS")
  in
  let outs =
    match t.loop_outs with
    | Some o -> o
    | None -> trap t (Fault.Illegal_inst "LOOP_WS without LOOP_WS_CONFIG_OUTS")
  in
  let m = bounds.Isa.lw_m and k = bounds.Isa.lw_k and n = bounds.Isa.lw_n in
  let mm =
    Tiled_matmul.make t.p ~tiling:(Tiled_matmul.choose t.p ~m ~k ~n) ~dataflow:`WS
      ~bias:
        (if bounds.Isa.lw_has_bias then Tiled_matmul.Broadcast outs.Isa.lw_bias
         else Tiled_matmul.No_bias)
      ~act:bounds.Isa.lw_activation ~scale:strides.Isa.lw_scale
      ~a_stride:strides.Isa.lw_a_stride ~b_stride:strides.Isa.lw_b_stride
      ~c_stride:strides.Isa.lw_c_stride ~a_condense:1.0 ~a:addrs.Isa.lw_a ~b:addrs.Isa.lw_b
      ~out:outs.Isa.lw_c ~m ~k ~n
  in
  for s = 0 to Tiled_matmul.steps mm - 1 do
    Tiled_matmul.step mm s ~cmd:loop_command ~run:loop_run t
  done

and loop_command t cmd = execute_with t ~issue_cost:1 ~count_insn:false cmd
and loop_run t r = execute_run_with t ~issue_cost:1 ~count_insn:false r

(* A run whose box fits issues exactly its commands' bookkeeping: a live
   engine dispatches the commands themselves (for their spans); a quiet
   one loops over the run's ints, Preload (no span) then Compute (a span
   when host-issued), without building a command. A run that does not
   fit goes through validation command by command, and traps where its
   first invalid command would. *)
and execute_run_with t ~issue_cost ~count_insn (r : Tiled_matmul.compute_run) =
  if not (Tiled_matmul.run_fits t.p r) then
    Tiled_matmul.run_commands r (execute_with t ~issue_cost ~count_insn)
  else if Engine.live t.engine then
    Tiled_matmul.run_commands r (dispatch t ~issue_cost ~count_insn)
  else
    for kk = 0 to r.cr_vk - 1 do
      let kcols = Tiled_matmul.run_kcols r (r.cr_k0 + kk) in
      let c_row0 = if r.cr_accumulate || kk > 0 then acc_accumulate else acc_overwrite in
      for jj = 0 to r.cr_vj - 1 do
        let ncols = Tiled_matmul.run_ncols r (r.cr_j0 + jj) in
        for ii = 0 to r.cr_vi - 1 do
          let rows = Tiled_matmul.run_rows r (r.cr_i0 + ii) in
          let first_of_b = ii = 0 in
          count t ~count_insn;
          t.issue <- t.issue + issue_cost;
          do_preload t
            ~b:
              (if first_of_b then
                 Local_addr.scratchpad ~row:(Tiled_matmul.run_b_row r ~kk ~jj)
               else Local_addr.garbage)
            ~c:(Local_addr.add_rows c_row0 (Tiled_matmul.run_c_row r ~ii ~jj))
            ~b_rows:kcols ~b_cols:ncols ~c_rows:rows ~c_cols:ncols;
          count t ~count_insn;
          if count_insn then begin
            t.cmd_finish <- t.issue;
            Engine.observe t.engine t.issue
          end;
          t.issue <- t.issue + issue_cost;
          do_compute t
            ~a:(Local_addr.scratchpad ~row:(Tiled_matmul.run_a_row r ~ii ~kk))
            ~bd:Local_addr.garbage ~a_rows:rows ~a_cols:kcols ~bd_rows:rows
            ~bd_cols:ncols ~preloaded:first_of_b;
          if count_insn then Engine.observe t.engine (Int.max t.issue t.cmd_finish)
        done
      done
    done

let execute t cmd = execute_with t ~issue_cost:t.issue_cycles ~count_insn:true cmd

let execute_run t r = execute_run_with t ~issue_cost:t.issue_cycles ~count_insn:true r

type stats = {
  insns : int;
  loop_micro_ops : int;
  loads : int;
  stores : int;
  computes : int;
  macs : int;
  host_cycles : int;
  flushes : int;
  ld_busy : Time.cycles;
  ex_busy : Time.cycles;
  st_busy : Time.cycles;
}

let stats t =
  {
    insns = t.s.insns;
    loop_micro_ops = t.s.loop_micro_ops;
    loads = t.s.loads;
    stores = t.s.stores;
    computes = t.s.computes;
    macs = t.s.macs;
    host_cycles = t.s.host_cycles;
    flushes = t.s.flushes;
    ld_busy = Resource.busy_cycles t.ld_pipe;
    ex_busy = Resource.busy_cycles t.ex_pipe;
    st_busy = Resource.busy_cycles t.st_pipe;
  }

let utilization t =
  let total = finish_time t in
  if total = 0 then 0.
  else
    float_of_int t.s.macs
    /. (float_of_int total *. float_of_int (Params.pes t.p))

(* --- snapshot / restore ----------------------------------------------------

   Everything the next command's timing or decode depends on: the issue
   cursor and data-landing high-water marks, the reorder window, the staged
   configuration state, and the counters. The three pipes are engine-owned
   and travel with the engine snapshot. Functional tile state (resident_b /
   os_acc) is serialized when present; at a fenced layer boundary — the
   only place the runtime checkpoints — os_acc is always None. *)

let activation =
  Snap.map
    (function
      | Jsonx.String "none" -> Peripheral.No_activation
      | Jsonx.String "relu" -> Peripheral.Relu
      | Jsonx.List [ Jsonx.String "relu6"; Jsonx.Int shift ] -> Peripheral.Relu6 { shift }
      | _ -> Snap.fail "bad activation")
    (function
      | Peripheral.No_activation -> Jsonx.String "none"
      | Peripheral.Relu -> Jsonx.String "relu"
      | Peripheral.Relu6 { shift } -> Jsonx.List [ Jsonx.String "relu6"; Jsonx.Int shift ])
    Snap.json

let dataflow =
  Snap.map
    (function "ws" -> `WS | "os" -> `OS | s -> Snap.fail "bad dataflow %S" s)
    (function `WS -> "ws" | `OS -> "os")
    Snap.string

let ex_cfg =
  Snap.(
    obj
      [ field "dataflow" dataflow (fun c -> c.dataflow) (fun c v -> c.dataflow <- v);
        field "activation" activation (fun c -> c.activation) (fun c v -> c.activation <- v);
        field "sys_shift" int (fun c -> c.sys_shift) (fun c v -> c.sys_shift <- v);
        field "a_transpose" bool (fun c -> c.a_transpose) (fun c v -> c.a_transpose <- v);
        field "b_transpose" bool (fun c -> c.b_transpose) (fun c v -> c.b_transpose <- v) ])

let ld_cfg =
  Snap.(
    obj
      [ field "stride" int (fun c -> c.stride) (fun c v -> c.stride <- v);
        field "scale" float (fun c -> c.scale) (fun c v -> c.scale <- v);
        field "shrunk" bool (fun c -> c.shrunk) (fun c v -> c.shrunk <- v) ])

let pool =
  Snap.map
    (fun a -> { Isa.window = a.(0); stride = a.(1); padding = a.(2) })
    (fun p -> [| p.Isa.window; p.Isa.stride; p.Isa.padding |])
    (Snap.ints 3)

let st_cfg =
  Snap.(
    obj
      [ field "stride" int (fun c -> c.st_stride) (fun c v -> c.st_stride <- v);
        field "act" activation (fun c -> c.st_act) (fun c v -> c.st_act <- v);
        field "scale" float (fun c -> c.st_scale) (fun c v -> c.st_scale <- v);
        field "pool" (option pool) (fun c -> c.st_pool) (fun c v -> c.st_pool <- v) ])

let preload { preload = pl; _ } =
  if not pl.pl_staged then None
  else
    Some
      [| Local_addr.to_bits pl.pl_bd; Local_addr.to_bits pl.pl_c; pl.pl_bd_rows;
         pl.pl_bd_cols; pl.pl_c_rows; pl.pl_c_cols |]

let set_preload { preload = pl; _ } = function
  | None -> pl.pl_staged <- false
  | Some a ->
      pl.pl_staged <- true;
      pl.pl_bd <- Local_addr.of_bits a.(0);
      pl.pl_c <- Local_addr.of_bits a.(1);
      pl.pl_bd_rows <- a.(2);
      pl.pl_bd_cols <- a.(3);
      pl.pl_c_rows <- a.(4);
      pl.pl_c_cols <- a.(5)

let loop_bounds =
  Snap.(
    obj
      ~init:(fun () ->
        { Isa.lw_m = 0; lw_k = 0; lw_n = 0; lw_has_bias = false;
          lw_activation = Peripheral.No_activation })
      [ update "m" int (fun b -> b.Isa.lw_m) (fun b lw_m -> { b with Isa.lw_m });
        update "k" int (fun b -> b.Isa.lw_k) (fun b lw_k -> { b with Isa.lw_k });
        update "n" int (fun b -> b.Isa.lw_n) (fun b lw_n -> { b with Isa.lw_n });
        update "bias" bool (fun b -> b.Isa.lw_has_bias) (fun b lw_has_bias ->
            { b with Isa.lw_has_bias });
        update "act" activation (fun b -> b.Isa.lw_activation) (fun b lw_activation ->
            { b with Isa.lw_activation }) ])

let loop_addrs =
  Snap.(map (fun (lw_a, lw_b) -> { Isa.lw_a; lw_b }) (fun a -> Isa.(a.lw_a, a.lw_b)))
    Snap.(pair int int)

let loop_outs =
  Snap.(map (fun (lw_bias, lw_c) -> { Isa.lw_bias; lw_c }) (fun o -> Isa.(o.lw_bias, o.lw_c)))
    Snap.(pair int int)

let matrix = Snap.(array int_array)

let os_resident =
  Snap.(
    obj
      ~init:(fun () -> { os_data = [||]; os_dest = Local_addr.garbage })
      [ update "data" matrix (fun o -> o.os_data) (fun o os_data -> { o with os_data });
        update "dest" (map Local_addr.of_bits Local_addr.to_bits int) (fun o -> o.os_dest)
          (fun o os_dest -> { o with os_dest }) ])

let codec =
  Snap.(
    obj
      [ field "issue" int (fun t -> t.issue) (fun t v -> t.issue <- v);
        field "last_ld_finish" int (fun t -> t.last_ld_finish) (fun t v -> t.last_ld_finish <- v);
        field "last_st_finish" int (fun t -> t.last_st_finish) (fun t v -> t.last_st_finish <- v);
        field "cmd_finish" int (fun t -> t.cmd_finish) (fun t v -> t.cmd_finish <- v);
        field "rob" (list int)
          (fun t ->
            List.init t.rob_len (fun k -> t.rob.((t.rob_head + k) mod Array.length t.rob)))
          (fun t finishes ->
            let n = List.length finishes in
            if n > Array.length t.rob then
              fail "%d commands in flight, room for %d" n (Array.length t.rob);
            rob_clear t;
            List.iteri (fun i c -> t.rob.(i) <- c) finishes;
            t.rob_len <- n);
        field "stats" (ints 8)
          (fun { s; _ } ->
            [| s.insns; s.loop_micro_ops; s.loads; s.stores; s.computes; s.macs; s.host_cycles;
               s.flushes |])
          (fun { s; _ } a ->
            s.insns <- a.(0);
            s.loop_micro_ops <- a.(1);
            s.loads <- a.(2);
            s.stores <- a.(3);
            s.computes <- a.(4);
            s.macs <- a.(5);
            s.host_cycles <- a.(6);
            s.flushes <- a.(7));
        sub "ex_cfg" ex_cfg (fun t -> t.ex_cfg);
        sub "ld_cfgs" (array ld_cfg) (fun t -> t.ld_cfgs);
        sub "st_cfg" st_cfg (fun t -> t.st_cfg);
        field "preload" (option (ints 6)) preload set_preload;
        field "loop_bounds" (option loop_bounds) (fun t -> t.loop_bounds) (fun t v ->
            t.loop_bounds <- v);
        field "loop_addrs" (option loop_addrs) (fun t -> t.loop_addrs) (fun t v ->
            t.loop_addrs <- v);
        field "loop_outs" (option loop_outs) (fun t -> t.loop_outs) (fun t v -> t.loop_outs <- v);
        field "resident_b" (option matrix) (fun t -> t.resident_b) (fun t v ->
            t.resident_b <- v);
        field "os_acc" (option os_resident) (fun t -> t.os_acc) (fun t v -> t.os_acc <- v);
        sub "spad" Scratchpad.codec (fun t -> t.spad);
        sub "dma" Dma.codec (fun t -> t.dma) ])
