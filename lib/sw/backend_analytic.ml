module Soc_config = Gem_soc.Soc_config
module P = Gemmini.Params
module Layer = Gem_dnn.Layer
module Cpu = Gem_cpu.Cpu_model
module Fault = Gem_sim.Fault
module Mathx = Gem_util.Mathx
module Tiled_matmul = Gemmini.Tiled_matmul

(* Int comparisons: Stdlib's [max]/[min] are polymorphic out-of-line
   calls, and the tile walk below makes a dozen per outer tile. *)
let max = Int.max
let min = Int.min

(* A closed-form latency estimator for the same lowering the
   cycle-accurate backend executes. Per kernel it walks the outer tile
   grid of the {!Schedule.t} (never the per-row / per-command stream) and
   advances three cursors — issue, the DMA path, the mesh — with
   aggregate occupancies:

   - mesh occupancy per DIM-block from [Mesh.pipelined_block_cycles]
     (WS fill [max rows DIM + bubble] for preloaded blocks, [rows +
     bubble] for accumulated ones; OS [k + DIM + bubble]);
   - DMA transfers priced as the max of three paces, matching the
     engine's resource chain: bus bytes ([ceil (row bytes / bus)] per
     row), the shared L2 port (the DMA issues one L2 access per row, so
     small-row transfers are port-bound at [port_line_occ] cycles per
     row), and DRAM line fetches for the stream's cold / non-resident
     lines. Loads and stores share one DMA cursor, like the engine's
     single per-core bus resource; the L2-port and DRAM paces scale with
     the number of active cores;
   - a TLB term from tile footprints: page-crossing counts per operand
     stream, classified into private hits / shared hits / walks by
     footprint-vs-capacity reasoning;
   - the ROB window ([max_in_flight]) limits how far issue runs ahead of
     retirement, which bounds inter-group overlap.

   Cost: O(outer tiles) per kernel — microseconds where the event-driven
   engine takes seconds. *)

(* --- machine constants ------------------------------------------------------- *)

type machine = {
  dim : int;
  bus : int;  (* DMA bus bytes per cycle (per core) *)
  ic : int;  (* host issue cycles per command *)
  bubble : int;  (* mesh inter-block bubble *)
  rob : int;  (* max in-flight commands *)
  page : int;
  priv_lat : int;
  shared_lat : int;
  shared_entries : int;
  walk_cost : int;  (* TLB-miss latency beyond the shared probe *)
  l2_bytes : int;
  l2_hit : int;
  line : int;
  port_line_occ : int;  (* L2-port cycles per line-sized access *)
  dram_line : int;  (* DRAM channel cycles per line fetch *)
  dram_lat : int;
  cores : int;  (* contention factor on shared L2 port / DRAM *)
}

let machine (cfg : Soc_config.t) (cc : Soc_config.core_config) ~cores =
  let p = cc.Soc_config.accel in
  let tlb = cc.Soc_config.tlb in
  let line = cfg.Soc_config.l2_line_bytes in
  let port_line_occ =
    Mathx.ceil_div line (max 1 cfg.Soc_config.l2_port_bytes)
  in
  {
    dim = P.dim p;
    bus = max 1 p.P.dma_bus_bytes;
    ic = Cpu.issue_cycles cc.Soc_config.cpu;
    bubble = 4;
    rob = max 1 p.P.max_in_flight;
    page = Gem_vm.Page_table.page_size;
    priv_lat = tlb.Gem_vm.Hierarchy.private_hit_latency;
    shared_lat = tlb.Gem_vm.Hierarchy.shared_hit_latency;
    shared_entries = tlb.Gem_vm.Hierarchy.shared_entries;
    (* A walk pays the full TLB probe chain plus the leaf PTE read; PTE
       lines are hot in the L2 after the first touch. *)
    walk_cost = cfg.Soc_config.l2_hit_latency + port_line_occ;
    l2_bytes = cfg.Soc_config.l2_size_bytes;
    l2_hit = cfg.Soc_config.l2_hit_latency;
    line;
    port_line_occ;
    dram_line =
      Mathx.ceil_div line (max 1 cfg.Soc_config.dram_bytes_per_cycle);
    dram_lat = cfg.Soc_config.dram_latency;
    cores;
  }

(* --- pipeline cursors --------------------------------------------------------- *)

type cursors = {
  mutable issue : int;
  mutable dma : int;  (* shared load/store DMA-path busy-until *)
  mutable ex : int;
  mutable last_ld_fin : int;  (* data-landed horizon (DMA + memory tail) *)
  mutable last_st_fin : int;
  mutable ex_busy : int;  (* accumulated mesh occupancy (utilization) *)
  mutable tlb_requests : int;
  mutable tlb_walks : int;
  mutable tlb_shared : int;
  mutable ld_bytes : int;
  mutable st_bytes : int;
}

let fresh_cursors () =
  {
    issue = 0;
    dma = 0;
    ex = 0;
    last_ld_fin = 0;
    last_st_fin = 0;
    ex_busy = 0;
    tlb_requests = 0;
    tlb_walks = 0;
    tlb_shared = 0;
    ld_bytes = 0;
    st_bytes = 0;
  }

let horizon c =
  max c.issue (max (max c.dma c.ex) (max c.last_ld_fin c.last_st_fin))

(* A fence joins every cursor (Controller: issue <- finish_time). *)
let fence c = c.issue <- horizon c

(* ROB back-pressure: after a long command group, issue cannot run more
   than [rob] commands ahead of the group's retirement. *)
let rob_clamp m c ~cmds ~fin ~work =
  if cmds > m.rob then begin
    let per = work / max 1 cmds in
    c.issue <- max c.issue (fin - (m.rob * per))
  end

(* One DMA transfer group: [rows] row-granular accesses spanning
   [row_lines] cache lines each, [bus_occ] total bus cycles, with
   [miss_lines] lines missing the L2. The group's pace is the slowest of
   the three shared resources on the engine's DMA chain: the per-core
   bus, the shared L2 port (one access per row — small rows are
   port-bound), and the DRAM channel for the missing lines. *)
let dma_work m ~rows ~row_lines ~bus_occ ~translate ~miss_lines ~write =
  let port = rows * row_lines * m.port_line_occ * m.cores in
  (* A write miss allocates: line fetch plus the eventual dirty
     writeback, both consuming DRAM channel bandwidth. *)
  let dram = miss_lines * m.dram_line * (if write then 2 else 1) * m.cores in
  max (bus_occ + translate) (max port dram)

(* Memory tail of a transfer group: port occupancy plus the hit-or-miss
   latency of the last accesses in flight, weighted by the per-access
   miss probability. *)
let mem_tail m ~rows ~miss_lines =
  let p = Float.min 1.0 (float_of_int miss_lines /. float_of_int (max 1 rows)) in
  let miss = m.dram_lat + m.dram_line in
  m.port_line_occ
  + int_of_float
      ((p *. float_of_int miss) +. ((1. -. p) *. float_of_int m.l2_hit))

let dispatch_ld m c ~cmds ~work ~bytes ~tail =
  if cmds > 0 then begin
    let start = max c.dma c.issue in
    c.issue <- c.issue + (cmds * m.ic);
    c.dma <- start + work;
    c.last_ld_fin <- max c.last_ld_fin (c.dma + tail);
    c.ld_bytes <- c.ld_bytes + bytes;
    rob_clamp m c ~cmds ~fin:c.last_ld_fin ~work
  end

let dispatch_ex m c ~cmds ~work =
  if cmds > 0 then begin
    let start = max (max c.ex c.issue) c.last_ld_fin in
    c.issue <- c.issue + (cmds * m.ic);
    c.ex <- start + work;
    c.ex_busy <- c.ex_busy + work;
    rob_clamp m c ~cmds ~fin:c.ex ~work
  end

let dispatch_st m c ~cmds ~work ~bytes ~tail =
  if cmds > 0 then begin
    (* Mvout ready = max(issue, ex busy, loads landed); it then queues on
       the same DMA path the loads use. *)
    let ready = max c.issue (max c.ex c.last_ld_fin) in
    let start = max c.dma ready in
    c.issue <- c.issue + (cmds * m.ic);
    c.dma <- start + work;
    c.last_st_fin <- max c.last_st_fin (c.dma + tail);
    c.st_bytes <- c.st_bytes + bytes;
    rob_clamp m c ~cmds ~fin:c.last_st_fin ~work
  end

let host_work c ~cycles = c.issue <- c.issue + cycles

(* --- per-kernel TLB model ----------------------------------------------------- *)

(* One operand stream: [crossings] filter misses, of which [walks] go to
   the page-table walker, [shared] hit the shared TLB and the rest hit
   the private TLB. *)
type tlb_stream = { requests : int; crossings : int; walks : int; shared : int }

let tlb_stream m ~requests ~crossings ~pages ~sweeps ~working_pages =
  let pages = max 1 pages in
  let crossings = min requests (max crossings pages) in
  let resident = working_pages <= m.shared_entries in
  let walks, shared =
    if resident then (pages, pages * (sweeps - 1))
    else (pages * sweeps, 0)
  in
  let walks = min crossings walks in
  let shared = min (crossings - walks) shared in
  { requests; crossings; walks; shared }

let tlb_cost m s =
  (s.crossings * m.priv_lat)
  + (s.shared * m.shared_lat)
  + (s.walks * (m.shared_lat + m.walk_cost))

let add_tlb c s =
  c.tlb_requests <- c.tlb_requests + s.requests;
  c.tlb_walks <- c.tlb_walks + s.walks;
  c.tlb_shared <- c.tlb_shared + s.shared

(* Cold-miss line count of a strided stream: the lines its span touches,
   re-missed on every sweep unless the stream is L2-resident. *)
let stream_miss_lines m ~span ~sweeps =
  let lines = Mathx.ceil_div (max 1 span) m.line in
  let resident = span * 2 <= m.l2_bytes in
  lines * (1 + ((sweeps - 1) * if resident then 0 else 1))

(* --- matmul ------------------------------------------------------------------- *)

(* Exact command counts of one [Kernels.matmul_steps] invocation, derived
   from the schedule alone. The conformance test diffs these against the
   emitted stream, proving both backends price the same program. *)
type mm_counts = {
  mc_configs : int;
  mc_bias_mvins : int;
  mc_a_mvins : int;
  mc_b_mvins : int;
  mc_preloads : int;
  mc_computes : int;
  mc_mvouts : int;
}

let groups_of total tile =
  (* sum over outer iterations of ceil(v / max_block_len) *)
  let acc = ref 0 in
  for o = 0 to Mathx.ceil_div total tile - 1 do
    let v = min tile (total - (o * tile)) in
    acc := !acc + Mathx.ceil_div v Tiled_matmul.max_block_len
  done;
  !acc

let matmul_command_counts p (ms : Lower.matmul_shape) =
  let tl = ms.Lower.ms_schedule.Schedule.tiling in
  let bi, bk, bj =
    Tiled_matmul.blocks p ~m:ms.Lower.ms_m ~k:ms.Lower.ms_k ~n:ms.Lower.ms_n
  in
  let oi = Mathx.ceil_div bi tl.Tiled_matmul.ti
  and oj = Mathx.ceil_div bj tl.Tiled_matmul.tj in
  let gk = groups_of bk tl.Tiled_matmul.tk and gj = groups_of bj tl.Tiled_matmul.tj in
  {
    mc_configs = 5;
    mc_bias_mvins = (if ms.Lower.ms_bias = `None then 0 else bi * bj);
    mc_a_mvins = oj * bi * gk;
    mc_b_mvins = oi * bk * gj;
    mc_preloads = bi * bk * bj;
    mc_computes = bi * bk * bj;
    mc_mvouts = bi * bj;
  }

(* Row extents of one outer tile along a dimension: number of DIM-blocks,
   summed element extent, and the extent of the first block. *)
let tile_extent ~total ~dim ~blocks ~tile ~o =
  let lo = o * tile in
  let v = min tile (blocks - lo) in
  let hi = lo + v in
  let sum = if hi = blocks then total - (lo * dim) else v * dim in
  let first = min dim (total - (lo * dim)) in
  (v, sum, first)

let condense_len c x =
  max 1 (int_of_float (Float.round (float_of_int x *. c)))

(* Per-row bus occupancy and bytes of the MAX_BLOCK_LEN column groups
   covering [v] blocks starting at block [b0] of a [total]-wide
   operand. *)
let col_groups ~dim ~bus ~total ~b0 ~v ~condense =
  let occ = ref 0 and bytes = ref 0 in
  let i = ref 0 in
  while !i < v do
    let w = min Tiled_matmul.max_block_len (v - !i) in
    let cols = min (w * dim) (total - ((b0 + !i) * dim)) in
    let b = condense_len condense cols in
    occ := !occ + Mathx.ceil_div b bus;
    bytes := !bytes + b;
    i := !i + w
  done;
  (!occ, !bytes)

(* Per-row bus occupancy / bytes of per-block transfers (bias mvins and
   mvouts move one DIM-block of columns per command). *)
let block_cols ~dim ~bus ~total ~b0 ~v ~eb =
  let occ = ref 0 and bytes = ref 0 in
  for jj = 0 to v - 1 do
    let cols = min dim (total - ((b0 + jj) * dim)) in
    let b = cols * eb in
    occ := !occ + Mathx.ceil_div b bus;
    bytes := !bytes + b
  done;
  (!occ, !bytes)

let estimate_matmul m c (ms : Lower.matmul_shape) ~reps =
  let dim = m.dim in
  let mm = ms.Lower.ms_m and kk = ms.Lower.ms_k and nn = ms.Lower.ms_n in
  let sch = ms.Lower.ms_schedule in
  let tl = sch.Schedule.tiling in
  let ti = tl.Tiled_matmul.ti and tk = tl.Tiled_matmul.tk and tj = tl.Tiled_matmul.tj in
  let bi = Mathx.ceil_div mm dim
  and bk = Mathx.ceil_div kk dim
  and bj = Mathx.ceil_div nn dim in
  let oi = Mathx.ceil_div bi ti
  and ok = Mathx.ceil_div bk tk
  and oj = Mathx.ceil_div bj tj in
  let iters = oi * oj * ok in
  let cond = ms.Lower.ms_a_condense in
  let has_bias = ms.Lower.ms_bias <> `None in
  (* Kernel-level operand footprints. Spans use the DMA's address
     arithmetic: A rows advance by the condensed stride. *)
  let a_span = condense_len cond (mm * ms.Lower.ms_a_stride) in
  let b_span = kk * ms.Lower.ms_b_stride in
  let o_span = mm * ms.Lower.ms_c_stride in
  let bias_span = if has_bias then 4 * nn else 0 in
  let pages_a = Mathx.ceil_div a_span m.page
  and pages_b = Mathx.ceil_div b_span m.page
  and pages_o = Mathx.ceil_div o_span m.page in
  let working = pages_a + pages_b + pages_o in
  let gk_total = groups_of bk tk and gj_total = groups_of bj tj in
  (* Instance repetitions (attention heads, depthwise channels) stream
     through the same tensors, so only the first repetition pays the
     cold DRAM misses when the joint footprint is L2-resident. *)
  let inst_resident = (a_span + b_span + o_span) * 2 <= m.l2_bytes in
  (* TLB streams (whole kernel), amortized per iteration below. *)
  let s_a =
    tlb_stream m
      ~requests:(oj * gk_total * mm)
      ~crossings:(oj * gk_total * pages_a)
      ~pages:pages_a ~sweeps:oj ~working_pages:working
  in
  let s_b =
    tlb_stream m
      ~requests:(oi * gj_total * kk)
      ~crossings:(oi * gj_total * pages_b)
      ~pages:pages_b ~sweeps:oi ~working_pages:working
  in
  let s_bias =
    if has_bias then
      tlb_stream m ~requests:(mm * bj) ~crossings:(oi * oj)
        ~pages:(Mathx.ceil_div bias_span m.page)
        ~sweeps:1 ~working_pages:working
    else { requests = 0; crossings = 0; walks = 0; shared = 0 }
  in
  let s_out =
    tlb_stream m ~requests:(mm * bj)
      ~crossings:(pages_o + (oi * oj))
      ~pages:pages_o ~sweeps:1 ~working_pages:working
  in
  let t_ld_iter =
    (tlb_cost m s_a + tlb_cost m s_b + tlb_cost m s_bias) / max 1 iters
  in
  let t_st_iter = tlb_cost m s_out / max 1 (oi * oj) in
  (* Cold / non-resident DRAM lines per stream, amortized over the
     transfer groups that carry them. *)
  let a_miss = stream_miss_lines m ~span:a_span ~sweeps:oj in
  let b_miss = stream_miss_lines m ~span:b_span ~sweeps:oi in
  let bias_miss =
    if has_bias then stream_miss_lines m ~span:bias_span ~sweeps:1 else 0
  in
  let o_miss = stream_miss_lines m ~span:o_span ~sweeps:1 in
  for rep = 1 to reps do
    let rf = if rep = 1 || not inst_resident then 1 else 0 in
    if rep = 1 then begin
      add_tlb c s_a;
      add_tlb c s_b;
      add_tlb c s_bias;
      add_tlb c s_out
    end;
    let ab_miss_iter = rf * (a_miss + b_miss) / max 1 iters in
    let bias_miss_iter = rf * bias_miss / max 1 (oi * oj) in
    let o_miss_iter = rf * o_miss / max 1 (oi * oj) in
    c.issue <- c.issue + (5 * m.ic);
    for i0 = 0 to oi - 1 do
      let vi, rows_i, r0 =
        tile_extent ~total:mm ~dim ~blocks:bi ~tile:ti ~o:i0
      in
      for j0 = 0 to oj - 1 do
        let vj, _, _ = tile_extent ~total:nn ~dim ~blocks:bj ~tile:tj ~o:j0 in
        (* Bias staging: per-block int32 mvins through the accumulator
           channel. *)
        if has_bias then begin
          let occ_bias, bytes_bias_row =
            block_cols ~dim ~bus:m.bus ~total:nn ~b0:(j0 * tj) ~v:vj ~eb:4
          in
          let rows = rows_i * vj in
          let work =
            dma_work m ~rows ~row_lines:1 ~bus_occ:(occ_bias * rows_i)
              ~translate:0 ~miss_lines:bias_miss_iter ~write:false
          in
          dispatch_ld m c ~cmds:(vi * vj) ~work
            ~bytes:(bytes_bias_row * rows_i)
            ~tail:(mem_tail m ~rows ~miss_lines:bias_miss_iter)
        end;
        for k0 = 0 to ok - 1 do
          let vk, krows, _ =
            tile_extent ~total:kk ~dim ~blocks:bk ~tile:tk ~o:k0
          in
          let occ_a, bytes_a_row =
            col_groups ~dim ~bus:m.bus ~total:kk ~b0:(k0 * tk) ~v:vk
              ~condense:cond
          in
          let occ_b, bytes_b_row =
            col_groups ~dim ~bus:m.bus ~total:nn ~b0:(j0 * tj) ~v:vj
              ~condense:1.0
          in
          let a_cmds = vi * Mathx.ceil_div vk Tiled_matmul.max_block_len in
          let b_cmds = vk * Mathx.ceil_div vj Tiled_matmul.max_block_len in
          let a_rows = rows_i * Mathx.ceil_div vk Tiled_matmul.max_block_len in
          let b_rows = krows * Mathx.ceil_div vj Tiled_matmul.max_block_len in
          let a_bytes = bytes_a_row * rows_i in
          let b_bytes = bytes_b_row * krows in
          let work =
            dma_work m ~rows:(a_rows + b_rows) ~row_lines:1
              ~bus_occ:((occ_a * rows_i) + (occ_b * krows))
              ~translate:t_ld_iter ~miss_lines:ab_miss_iter ~write:false
          in
          dispatch_ld m c ~cmds:(a_cmds + b_cmds) ~work
            ~bytes:(a_bytes + b_bytes)
            ~tail:
              (mem_tail m ~rows:(a_rows + b_rows) ~miss_lines:ab_miss_iter);
          (* Compute: per (kk, jj) one preloaded block (fill) plus (vi-1)
             accumulated blocks. *)
          let ex_work =
            match sch.Schedule.dataflow with
            | `WS ->
                vk * vj
                * (max r0 dim + m.bubble + (rows_i - r0)
                  + (m.bubble * (vi - 1)))
            | `OS -> vi * vj * (krows + (vk * (dim + m.bubble)))
          in
          dispatch_ex m c ~cmds:(2 * vi * vj * vk) ~work:ex_work
        done;
        (* Drain the C tile: per-block int8 mvouts. *)
        let occ_c, bytes_c_row =
          block_cols ~dim ~bus:m.bus ~total:nn ~b0:(j0 * tj) ~v:vj ~eb:1
        in
        let st_rows = rows_i * vj in
        let st_work =
          dma_work m ~rows:st_rows ~row_lines:1 ~bus_occ:(occ_c * rows_i)
            ~translate:t_st_iter ~miss_lines:o_miss_iter ~write:true
        in
        dispatch_st m c ~cmds:(vi * vj) ~work:st_work
          ~bytes:(bytes_c_row * rows_i)
          ~tail:(mem_tail m ~rows:st_rows ~miss_lines:o_miss_iter)
      done
    done
  done

(* --- resadd ------------------------------------------------------------------- *)

let estimate_resadd m c ~elems =
  let dim = m.dim in
  let total_rows = Mathx.ceil_div elems dim in
  let row_occ = Mathx.ceil_div dim m.bus in
  let groups = Mathx.ceil_div total_rows dim in
  let pages = Mathx.ceil_div elems m.page in
  (* x and y interleave at mvin granularity: the read filter flips twice
     per group on top of the sequential page crossings. *)
  let s_rd =
    tlb_stream m ~requests:(2 * total_rows)
      ~crossings:((2 * groups) + (2 * pages))
      ~pages:(2 * pages) ~sweeps:1 ~working_pages:(3 * pages)
  in
  let s_wr =
    tlb_stream m ~requests:total_rows ~crossings:pages ~pages ~sweeps:1
      ~working_pages:(3 * pages)
  in
  add_tlb c s_rd;
  add_tlb c s_wr;
  let t_ld = tlb_cost m s_rd / max 1 groups in
  let t_st = tlb_cost m s_wr / max 1 groups in
  let rd_miss_g = 2 * stream_miss_lines m ~span:elems ~sweeps:1 / max 1 groups in
  let wr_miss_g = stream_miss_lines m ~span:elems ~sweeps:1 / max 1 groups in
  c.issue <- c.issue + (3 * m.ic);
  let row = ref 0 in
  while !row < total_rows do
    let rows = min dim (total_rows - !row) in
    let work =
      dma_work m ~rows:(2 * rows) ~row_lines:1 ~bus_occ:(2 * rows * row_occ)
        ~translate:t_ld ~miss_lines:rd_miss_g ~write:false
    in
    dispatch_ld m c ~cmds:2 ~work ~bytes:(2 * rows * dim)
      ~tail:(mem_tail m ~rows:(2 * rows) ~miss_lines:rd_miss_g);
    let st_work =
      dma_work m ~rows ~row_lines:1 ~bus_occ:(rows * row_occ) ~translate:t_st
        ~miss_lines:wr_miss_g ~write:true
    in
    dispatch_st m c ~cmds:1 ~work:st_work ~bytes:(rows * dim)
      ~tail:(mem_tail m ~rows ~miss_lines:wr_miss_g);
    row := !row + rows
  done

(* --- maxpool ------------------------------------------------------------------ *)

let estimate_maxpool m c (spec : Layer.pool_spec) =
  let dim = m.dim in
  let in_elems = spec.Layer.p_in_h * spec.Layer.p_in_w * spec.Layer.p_ch in
  let out_h, out_w = Layer.pool_out_dims spec in
  let out_elems = out_h * out_w * spec.Layer.p_ch in
  let in_rows = Mathx.ceil_div in_elems dim in
  let out_rows = Mathx.ceil_div out_elems dim in
  let lps = max 1 (Mathx.ceil_div in_rows (max 1 out_rows)) in
  let row_occ = Mathx.ceil_div dim m.bus in
  let pages_in = Mathx.ceil_div in_elems m.page in
  let pages_out = Mathx.ceil_div out_elems m.page in
  let s_rd =
    tlb_stream m ~requests:in_rows ~crossings:pages_in ~pages:pages_in
      ~sweeps:1 ~working_pages:(pages_in + pages_out)
  in
  let s_wr =
    tlb_stream m ~requests:out_rows ~crossings:pages_out ~pages:pages_out
      ~sweeps:1 ~working_pages:(pages_in + pages_out)
  in
  add_tlb c s_rd;
  add_tlb c s_wr;
  let iters = max 1 (Mathx.ceil_div in_rows (dim * lps)) in
  let t_ld = tlb_cost m s_rd / iters in
  let t_st = tlb_cost m s_wr / iters in
  let rd_miss = stream_miss_lines m ~span:in_elems ~sweeps:1 / iters in
  let wr_miss = stream_miss_lines m ~span:out_elems ~sweeps:1 / iters in
  c.issue <- c.issue + (2 * m.ic);
  let li = ref 0 and si = ref 0 in
  while !li < in_rows || !si < out_rows do
    if !li < in_rows then begin
      let rows = min (dim * lps) (in_rows - !li) in
      let work =
        dma_work m ~rows ~row_lines:1 ~bus_occ:(rows * row_occ)
          ~translate:t_ld ~miss_lines:rd_miss ~write:false
      in
      dispatch_ld m c ~cmds:lps ~work ~bytes:(rows * dim)
        ~tail:(mem_tail m ~rows ~miss_lines:rd_miss);
      li := !li + rows
    end;
    if !si < out_rows then begin
      let rows = min dim (out_rows - !si) in
      let work =
        dma_work m ~rows ~row_lines:1 ~bus_occ:(rows * row_occ)
          ~translate:t_st ~miss_lines:wr_miss ~write:true
      in
      dispatch_st m c ~cmds:1 ~work ~bytes:(rows * dim)
        ~tail:(mem_tail m ~rows ~miss_lines:wr_miss);
      si := !si + rows
    end
  done

(* --- per-core estimation ------------------------------------------------------ *)

type detail = {
  d_result : Runtime.result;
  d_tlb_requests : int;
  d_tlb_walks : int;
  d_tlb_shared : int;
  d_mesh_busy : int;
  d_ld_bytes : int;
  d_st_bytes : int;
}

let estimate_core (cfg : Soc_config.t) ~core ~cores model ~(mode : Lower.mode)
    ~(policy : Runtime.policy) ~watchdog =
  let cc =
    match List.nth_opt cfg.Soc_config.cores core with
    | Some cc -> cc
    | None -> invalid_arg "Backend_analytic: core index out of range"
  in
  let p = cc.Soc_config.accel in
  let cpu = cc.Soc_config.cpu in
  let m = machine cfg cc ~cores in
  let c = fresh_cursors () in
  let plans = Lower.plan p ~cpu ~mode model in
  let faults = ref [] in
  let records = ref [] in
  List.iter
    (fun (lp : Lower.layer_plan) ->
      let start = horizon c in
      (match lp.Lower.lp_kernel with
      | Lower.K_host hw -> host_work c ~cycles:hw.Lower.hw_cycles
      | Lower.K_matmul { prep; shape; count; _ } ->
          Option.iter (fun hw -> host_work c ~cycles:hw.Lower.hw_cycles) prep;
          estimate_matmul m c shape ~reps:count
      | Lower.K_resadd { elems } -> estimate_resadd m c ~elems
      | Lower.K_maxpool { spec } -> estimate_maxpool m c spec);
      fence c;
      let spent = horizon c - start in
      (match watchdog with
      | Some limit when spent > limit -> (
          let fault =
            Fault.make ~core ~component:(Printf.sprintf "core%d/host" core)
              ~cycle:(horizon c)
              (Fault.Watchdog_timeout { limit; spent })
          in
          match policy with
          | Runtime.Degrade ->
              faults :=
                {
                  Runtime.fr_fault = fault;
                  fr_layer = lp.Lower.lp_name;
                  fr_action = "degrade";
                }
                :: !faults;
              host_work c ~cycles:lp.Lower.lp_cpu_cycles;
              fence c
          | Runtime.Abort | Runtime.Retry_map | Runtime.Resume_checkpoint ->
              (* The analytic estimator has no snapshot to resume from;
                 a watchdog trip unwinds as Abort does. *)
              faults :=
                {
                  Runtime.fr_fault = fault;
                  fr_layer = lp.Lower.lp_name;
                  fr_action = "abort";
                }
                :: !faults;
              raise (Fault.Trap fault))
      | _ -> ());
      records :=
        {
          Runtime.lr_name = lp.Lower.lp_name;
          lr_class = lp.Lower.lp_class;
          lr_cycles = horizon c - start;
          lr_macs = lp.Lower.lp_macs;
        }
        :: !records)
    plans;
  let total = horizon c in
  {
    d_result =
      {
        Runtime.r_model = model.Layer.model_name;
        r_mode = Lower.mode_desc mode;
        r_core = core;
        r_total_cycles = total;
        r_layers = List.rev !records;
        r_profile = [];
        r_faults = List.rev !faults;
      };
    d_tlb_requests = c.tlb_requests;
    d_tlb_walks = c.tlb_walks;
    d_tlb_shared = c.tlb_shared;
    d_mesh_busy = c.ex_busy;
    d_ld_bytes = c.ld_bytes;
    d_st_bytes = c.st_bytes;
  }

let estimate (rq : Backend.request) =
  let cores = Array.length rq.Backend.bq_jobs in
  Array.mapi
    (fun core (model, mode) ->
      estimate_core rq.Backend.bq_config ~core ~cores model ~mode
        ~policy:rq.Backend.bq_policy ~watchdog:rq.Backend.bq_watchdog)
    rq.Backend.bq_jobs

let run rq = Array.map (fun d -> d.d_result) (estimate rq)
