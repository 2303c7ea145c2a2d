open Gem_sim
open Gem_mem
open Gem_util

type core = {
  id : int;
  cpu : Gem_cpu.Cpu_model.kind;
  controller : Gemmini.Controller.t;
  hierarchy : Gem_vm.Hierarchy.t;
  page_table : Gem_vm.Page_table.t;
  mutable next_vaddr : int;
  (* swap space: ppn of every page injection has unmapped, so a remap
     restores the same physical page (and its contents) *)
  swapped : (int, int) Hashtbl.t;
}

type t = {
  cfg : Soc_config.t;
  engine : Engine.t; (* one simulation context for the whole chip *)
  l2 : Cache.t;
  l2_port : Resource.t;
  port_occupancy : Time.cycles; (* port cycles per L2 line *)
  line_shift : int; (* log2 of the L2 line: a shift, not a division *)
  dram : Dram.t;
  mainmem : Mainmem.t option;
  mutable cores_arr : core array;
  mutable next_paddr : int; (* shared physical page allocator *)
}

let page_size = Gem_vm.Page_table.page_size

(* Physical memory layout: page-table nodes for core i live in their own
   16 MiB region; data pages are allocated from a shared bump pointer
   above all node regions. *)
let pt_region_base i = 0x4000_0000 + (i * 0x0100_0000)
let data_base cores = 0x4000_0000 + (cores * 0x0100_0000)
let va_base = 0x0001_0000

(* One line of an access whose port slot ends at [port_done]: the L2
   lookup, and the DRAM fill on a miss. *)
let line_access soc ~write ~port_done ln =
  match Cache.access soc.l2 ~addr:(ln lsl soc.line_shift) ~write with
  | Cache.Hit -> port_done + soc.cfg.Soc_config.l2_hit_latency
  | Cache.Miss ->
      (* Allocate: fetch the line from DRAM. *)
      Dram.access soc.dram ~now:port_done ~bytes:soc.cfg.Soc_config.l2_line_bytes
        ~write:false
  | Cache.Miss_writeback ->
      (* A dirty victim writes back, consuming bandwidth but not adding to
         the critical path. *)
      let bytes = soc.cfg.Soc_config.l2_line_bytes in
      let fetch_done = Dram.access soc.dram ~now:port_done ~bytes ~write:false in
      ignore (Dram.access soc.dram ~now:port_done ~bytes ~write:true);
      fetch_done

(* One L2+DRAM access path shared by every requester on the SoC: each
   line from [ln] to [last] takes its own port slot, all arriving at
   [now]. Top-level and tail-recursive over unboxed ints, so the quiet
   path allocates nothing. *)
let rec mem_lines soc ~now ~write ~last ln finish =
  if ln > last then finish
  else
    let port_done =
      Engine.acquire soc.engine soc.l2_port ~now ~occupancy:soc.port_occupancy
    in
    let line_done = line_access soc ~write ~port_done ln in
    mem_lines soc ~now ~write ~last (ln + 1)
      (if line_done > finish then line_done else finish)

let mem_access soc ~now ~paddr ~bytes ~write =
  mem_lines soc ~now ~write
    ~last:((paddr + Int.max bytes 1 - 1) lsr soc.line_shift)
    (paddr lsr soc.line_shift) now

(* A page run, in one pass: [n] rows of [row_bytes], row [j] arriving at
   [now + j*spacing] at [paddr + j*stride]. A row inside one L2 line takes
   one port slot, so row [k] of a segment of such rows starts at
   [max (now0 + k*spacing) (start0 + k*occupancy)], and the segment takes
   its slots in one {!Resource.acquire_spaced} when it ends. The cache sees
   the rows in order: a {!Cache.access} (and a {!Dram.access} per miss, at
   the row's slot) for a row that starts a new line, one {!Cache.hit_mru}
   for the rows after it that stay in that line (a line run). A row that
   spans lines ends the segment and takes {!mem_lines}. Every counter and
   state ends as the per-line walk leaves it. *)
let rec run_rows soc ~write ~spacing ~stride ~row_bytes ~now0 ~start0 k n now
    paddr finish =
  let shift = soc.line_shift and occ = soc.port_occupancy in
  let ln = paddr lsr shift in
  if n > 0 && (paddr + row_bytes - 1) lsr shift = ln then
    let line = 1 lsl shift in
    let run =
      if ln <> Cache.mru_line soc.l2 then 0
      else if stride >= line || stride <= -line then 1
      else
        let lo = ln lsl shift in
        Mathx.rows_within ~lo ~hi:(lo + line - row_bytes) ~first:paddr
          ~stride ~n
    in
    let last = Int.max run 1 - 1 in
    let arrival = now + (last * spacing)
    and queued = start0 + ((k + last) * occ) in
    let port_done = (if arrival >= queued then arrival else queued) + occ in
    let line_done =
      if run > 0 then begin
        Cache.hit_mru soc.l2 ~n:run ~write;
        port_done + soc.cfg.Soc_config.l2_hit_latency
      end
      else line_access soc ~write ~port_done ln
    in
    run_rows soc ~write ~spacing ~stride ~row_bytes ~now0 ~start0
      (k + last + 1) (n - last - 1)
      (now + ((last + 1) * spacing))
      (paddr + ((last + 1) * stride))
      (if line_done > finish then line_done else finish)
  else begin
    if k > 0 then
      ignore
        (Resource.acquire_spaced soc.l2_port ~now:now0 ~spacing ~occupancy:occ
           ~n:k);
    if n = 0 then finish
    else
      run_from soc ~write ~spacing ~stride ~row_bytes (n - 1) (now + spacing)
        (paddr + stride)
        (mem_lines soc ~now ~write ~last:((paddr + row_bytes - 1) lsr shift) ln
           finish)
  end

and run_from soc ~write ~spacing ~stride ~row_bytes n now paddr finish =
  run_rows soc ~write ~spacing ~stride ~row_bytes ~now0:now
    ~start0:(Resource.next_free soc.l2_port ~now) 0 n now paddr finish

let page_run soc ~first ~spacing ~n ~paddr ~stride ~row_bytes ~write =
  let finish = run_from soc ~write ~spacing ~stride ~row_bytes n first paddr first in
  Engine.observe soc.engine finish;
  finish

let make_port soc : Gemmini.Dma.port =
  {
    Gemmini.Dma.read_timing =
      (fun ~now ~paddr ~bytes -> mem_access soc ~now ~paddr ~bytes ~write:false);
    write_timing =
      (fun ~now ~paddr ~bytes -> mem_access soc ~now ~paddr ~bytes ~write:true);
    read_data =
      Option.map
        (fun mm -> fun ~paddr ~n -> Array.init n (fun i -> Mainmem.read_byte mm ~addr:(paddr + i)))
        soc.mainmem;
    write_data =
      Option.map
        (fun mm ->
          fun ~paddr bytes ->
           Array.iteri (fun i b -> Mainmem.write_byte mm ~addr:(paddr + i) b) bytes)
        soc.mainmem;
    page_run = page_run soc;
  }

let create cfg =
  (match Soc_config.validate cfg with
  | Ok () -> ()
  | Error errs -> invalid_arg ("Soc: " ^ String.concat "; " errs));
  let n = List.length cfg.Soc_config.cores in
  let engine = Engine.create () in
  (* Explicit lets fix the registry (and hence profile) order: shared
     memory system first, then each core's components. *)
  let l2 =
    Cache.create ~engine ~name:"l2" ~size_bytes:cfg.Soc_config.l2_size_bytes
      ~ways:cfg.Soc_config.l2_ways ~line_bytes:cfg.Soc_config.l2_line_bytes ()
  in
  let l2_port = Engine.resource engine ~kind:Engine.Cache ~name:"l2-port" in
  let dram =
    Dram.create ~engine ~latency:cfg.Soc_config.dram_latency
      ~bytes_per_cycle:cfg.Soc_config.dram_bytes_per_cycle ()
  in
  let soc =
    {
      cfg;
      engine;
      l2;
      l2_port;
      port_occupancy =
        Mathx.ceil_div cfg.Soc_config.l2_line_bytes cfg.Soc_config.l2_port_bytes;
      (* [Cache.create] has checked the line is a power of two. *)
      line_shift = Mathx.log2_exact cfg.Soc_config.l2_line_bytes;
      dram;
      mainmem = (if cfg.Soc_config.functional then Some (Mainmem.create ()) else None);
      cores_arr = [||];
      next_paddr = data_base n;
    }
  in
  let port = make_port soc in
  let cores =
    List.mapi
      (fun i (cc : Soc_config.core_config) ->
        let page_table =
          Gem_vm.Page_table.create ~node_region_base:(pt_region_base i) ()
        in
        let ptw =
          Gem_vm.Ptw.create ~engine:soc.engine
            ~name:(Printf.sprintf "core%d/ptw" i)
            ~page_table
            ~mem_read:(fun ~now ~paddr ~bytes ->
              mem_access soc ~now ~paddr ~bytes ~write:false)
            ()
        in
        let hierarchy =
          Gem_vm.Hierarchy.create ~engine:soc.engine
            ~name:(Printf.sprintf "core%d/tlb" i)
            ~core:i cc.Soc_config.tlb ~ptw
        in
        let controller =
          Gemmini.Controller.create ~engine:soc.engine
            ~name:(Printf.sprintf "core%d" i)
            ~core:i ~params:cc.Soc_config.accel ~port ~tlb:hierarchy
            ~issue_cycles:(Gem_cpu.Cpu_model.issue_cycles cc.Soc_config.cpu)
            ()
        in
        {
          id = i;
          cpu = cc.Soc_config.cpu;
          controller;
          hierarchy;
          page_table;
          next_vaddr = va_base;
          swapped = Hashtbl.create 64;
        })
      cfg.Soc_config.cores
  in
  soc.cores_arr <- Array.of_list cores;
  soc

let engine t = t.engine
let cores t = t.cores_arr
let core t i = t.cores_arr.(i)
let l2 t = t.l2
let dram t = t.dram
let mainmem t = t.mainmem

let core_id c = c.id
let cpu c = c.cpu
let controller c = c.controller
let tlb c = c.hierarchy
let page_table c = c.page_table

let alloc_paddr t ~pages =
  let base = t.next_paddr in
  t.next_paddr <- t.next_paddr + (pages * page_size);
  base

let alloc t c ~bytes =
  if bytes <= 0 then invalid_arg "Soc.alloc: non-positive size";
  let pages = Mathx.ceil_div bytes page_size in
  let vaddr = c.next_vaddr in
  c.next_vaddr <- c.next_vaddr + (pages * page_size);
  let paddr = alloc_paddr t ~pages in
  Gem_vm.Page_table.map_range c.page_table ~vaddr ~bytes:(pages * page_size) ~paddr;
  vaddr

let va_extent c = (va_base, c.next_vaddr)

(* --- paging (fault injection / recovery) --------------------------------- *)

let unmap_page _t c ~vaddr =
  let vpn = Gem_vm.Page_table.vpn_of_vaddr vaddr in
  match Gem_vm.Page_table.unmap c.page_table ~vpn with
  | None -> false
  | Some ppn ->
      Hashtbl.replace c.swapped vpn ppn;
      Gem_vm.Hierarchy.invalidate c.hierarchy ~vpn;
      true

let map_page t c ~vaddr =
  let vpn = Gem_vm.Page_table.vpn_of_vaddr vaddr in
  let ppn =
    match Hashtbl.find_opt c.swapped vpn with
    | Some ppn ->
        (* Swap the original physical page back in: contents survive. *)
        Hashtbl.remove c.swapped vpn;
        ppn
    | None -> Gem_vm.Page_table.vpn_of_vaddr (alloc_paddr t ~pages:1)
  in
  Gem_vm.Page_table.map c.page_table ~vpn ~ppn

(* One plan instance is shared between a core's DMA (bus-error rolls) and
   its TLB hierarchy (drop/unmap rolls): the snapshot serializes it once
   and the restore re-shares one rebuilt instance the same way. *)
let wire_inject t c plan =
  Gemmini.Dma.set_inject (Gemmini.Controller.dma c.controller) plan;
  Gem_vm.Hierarchy.set_inject c.hierarchy ~plan
    ~unmap:(fun ~vaddr -> ignore (unmap_page t c ~vaddr))
    ()

let arm_injection t ~seed ~rate =
  Array.iteri
    (fun i c ->
      (* Distinct per-core seeds: each core's plan is an independent but
         reproducible stream. *)
      let plan = Inject.create ~seed:(seed + (i * 0x9E3779B9)) ~rate () in
      wire_inject t c plan)
    t.cores_arr

(* --- snapshot / restore ---------------------------------------------------- *)

(* Built per SoC: restoring a core's injection plan re-wires its unmap
   hook, which closes over the SoC. *)
let codec t =
  let core =
    Snap.(
      obj
        [ geometry "id" int (fun c -> c.id);
          sub "controller" Gemmini.Controller.codec (fun c -> c.controller);
          sub "tlb" Gem_vm.Hierarchy.codec (fun c -> c.hierarchy);
          sub "pt" Gem_vm.Page_table.codec (fun c -> c.page_table);
          field "next_vaddr" int (fun c -> c.next_vaddr) (fun c v -> c.next_vaddr <- v);
          field "swapped" (list (pair int int))
            (fun c ->
              List.sort compare
                (Hashtbl.fold (fun vpn ppn acc -> (vpn, ppn) :: acc) c.swapped []))
            (fun c pairs ->
              Hashtbl.reset c.swapped;
              List.iter (fun (vpn, ppn) -> Hashtbl.replace c.swapped vpn ppn) pairs);
          field "inject" (option Inject.codec)
            (fun c -> Gemmini.Dma.inject (Gemmini.Controller.dma c.controller))
            (fun c plan -> Option.iter (wire_inject t c) plan) ])
  in
  Snap.(
    obj
      [ sub "engine" Engine.codec (fun t -> t.engine);
        sub "l2" Cache.codec (fun t -> t.l2);
        sub "dram" Dram.codec (fun t -> t.dram);
        sub "mainmem" (option Mainmem.codec) (fun t -> t.mainmem);
        field "next_paddr" int (fun t -> t.next_paddr) (fun t v -> t.next_paddr <- v);
        sub "cores" (array core) (fun t -> t.cores_arr) ])

let snapshot t = Snap.snapshot (codec t) t
let restore t j = Snap.restore (codec t) t j

(* --- host-side data access (functional mode) ----------------------------- *)

let require_mainmem t =
  match t.mainmem with
  | Some mm -> mm
  | None -> invalid_arg "Soc: host data access requires a functional SoC"

let translate_exn c ~vaddr =
  match Gem_vm.Page_table.translate c.page_table ~vaddr with
  | Some paddr -> paddr
  | None -> invalid_arg (Printf.sprintf "Soc: unmapped vaddr 0x%x" vaddr)

(* Host accesses never cross page boundaries unsafely: walk bytewise by
   page segment. *)
let host_bytes_iter c ~vaddr ~n ~f =
  let off = ref 0 in
  while !off < n do
    let va = vaddr + !off in
    let in_page = page_size - (va land (page_size - 1)) in
    let seg = min in_page (n - !off) in
    let pa = translate_exn c ~vaddr:va in
    f ~pa ~off:!off ~len:seg;
    off := !off + seg
  done

let host_write_i8 t c ~vaddr data =
  let mm = require_mainmem t in
  host_bytes_iter c ~vaddr ~n:(Array.length data) ~f:(fun ~pa ~off ~len ->
      for i = 0 to len - 1 do
        Mainmem.write_i8 mm ~addr:(pa + i) data.(off + i)
      done)

let host_read_i8 t c ~vaddr ~n =
  let mm = require_mainmem t in
  let out = Array.make n 0 in
  host_bytes_iter c ~vaddr ~n ~f:(fun ~pa ~off ~len ->
      for i = 0 to len - 1 do
        out.(off + i) <- Mainmem.read_i8 mm ~addr:(pa + i)
      done);
  out

let host_write_i32 t c ~vaddr data =
  let mm = require_mainmem t in
  host_bytes_iter c ~vaddr ~n:(4 * Array.length data) ~f:(fun ~pa ~off ~len ->
      (* segments are page-sized and pages are 4-aligned, so i32s never
         straddle a segment *)
      assert (off land 3 = 0 && len land 3 = 0);
      for i = 0 to (len / 4) - 1 do
        Mainmem.write_i32 mm ~addr:(pa + (4 * i)) data.((off / 4) + i)
      done)

let host_read_i32 t c ~vaddr ~n =
  let mm = require_mainmem t in
  let out = Array.make n 0 in
  host_bytes_iter c ~vaddr ~n:(4 * n) ~f:(fun ~pa ~off ~len ->
      assert (off land 3 = 0 && len land 3 = 0);
      for i = 0 to (len / 4) - 1 do
        out.((off / 4) + i) <- Mainmem.read_i32 mm ~addr:(pa + (4 * i))
      done);
  out

(* --- program execution ---------------------------------------------------- *)

type op =
  | Insn of Gemmini.Isa.t
  | Compute_run of Gemmini.Tiled_matmul.compute_run
  | Host_work of { cycles : int; tag : string }
  | Marker of (core -> unit)

type steps = ((op -> unit) -> unit) Seq.t

module P = Gem_obs.Profile

let exec_op_quiet c = function
  | Insn insn -> Gemmini.Controller.execute c.controller insn
  | Compute_run r -> Gemmini.Controller.execute_run c.controller r
  | Host_work { cycles; tag = _ } ->
      Gemmini.Controller.host_work c.controller ~cycles
  | Marker f -> f c

(* The per-op dispatch probe is the self-profiler's widest net: nested
   engine/DMA probes subtract themselves out, so "soc.dispatch" self
   time is pure dispatch overhead. The quiet path stays branch-only;
   the profiled path tolerates simulated traps unwinding through it. *)
let exec_op c op =
  if !P.on then begin
    P.enter P.dispatch;
    Fun.protect
      ~finally:(fun () -> P.leave P.dispatch)
      (fun () -> exec_op_quiet c op)
  end
  else exec_op_quiet c op

let run_program _t c program =
  Seq.iter (exec_op c) program;
  Gemmini.Controller.finish_time c.controller

(* A program expanded on demand: each refill lowers the next step into
   one reused buffer, so at most one step's ops are live whatever the
   piece's size. [pieces] is lazy, so a piece is built only once the
   previous one is spent. The buffer is allocated on the first push, so
   an empty program allocates none. With [expand], a compute run is
   pushed as its commands. *)
type program = {
  mutable buf : op array;
  mutable len : int;
  mutable pos : int;  (** next op to hand out; the buffer is spent at [len] *)
  mutable emit : op -> unit;  (** appends to [buf], allocated once *)
  mutable steps : steps;  (** the rest of the current piece *)
  mutable pieces : steps Seq.t;
  guard : (core -> op -> unit) option;
  mutable expand : bool;
}

let append p op =
  if p.len = Array.length p.buf then begin
    let bigger = Array.make (max 256 (2 * p.len)) op in
    Array.blit p.buf 0 bigger 0 p.len;
    p.buf <- bigger
  end;
  Array.unsafe_set p.buf p.len op;
  p.len <- p.len + 1

let push p = function
  | Compute_run r when p.expand ->
      Gemmini.Tiled_matmul.run_commands r (fun i -> append p (Insn i))
  | op -> append p op

let make ?guard ~expand pieces =
  let p =
    { buf = [||]; len = 0; pos = 0; emit = ignore; steps = Seq.empty; pieces;
      guard; expand }
  in
  p.emit <- push p;
  p

let program ?guard pieces = make ?guard ~expand:false pieces

let rec refill p =
  match p.steps () with
  | Seq.Cons (step, rest) ->
      p.steps <- rest;
      p.len <- 0;
      p.pos <- 0;
      step p.emit;
      p.len > 0 || refill p
  | Seq.Nil -> (
      match p.pieces () with
      | Seq.Nil -> false
      | Seq.Cons (steps, pieces) ->
          p.steps <- steps;
          p.pieces <- pieces;
          refill p)

(* Lowering runs between dispatches, outside the soc.dispatch probe, so
   every refill carries its own. *)
let has_next p = p.pos < p.len || P.record P.lowering (fun () -> refill p)

let take p =
  let op = Array.unsafe_get p.buf p.pos in
  p.pos <- p.pos + 1;
  op

let op_seq pieces =
  let p = make ~expand:true pieces in
  let rec next () = if has_next p then Seq.Cons (take p, next) else Seq.Nil in
  next

let run_parallel t programs =
  let n = Array.length programs in
  if n > Array.length t.cores_arr then
    invalid_arg "Soc.run_parallel: more programs than cores";
  (* One dispatch runs a whole compute run, so no other core moves
     between its commands. A run touches only its own core's pipes, so no
     shared-resource access changes order and no cycle moves; but a live
     engine would record the cores' events in another order, so a traced
     run dispatches command by command. *)
  let expand = Engine.live t.engine in
  Array.iter (fun p -> p.expand <- expand) programs;
  let live = Array.make n true in
  let remaining = ref n in
  while !remaining > 0 do
    (* Advance the live core whose issue cursor is earliest: simulated-
       time-ordered interleaving of shared-resource accesses. *)
    let best = ref (-1) in
    let best_time = ref max_int in
    for i = 0 to n - 1 do
      if live.(i) then begin
        let now = Gemmini.Controller.now t.cores_arr.(i).controller in
        if now < !best_time then begin
          best_time := now;
          best := i
        end
      end
    done;
    let i = !best in
    let p = programs.(i) in
    if has_next p then begin
      let c = t.cores_arr.(i) in
      (* Markers are host code, not commands: the guard wraps only
         accelerator ops, and one handler serves them all. *)
      match (take p, p.guard) with
      | (Marker _ as op), _ | op, None -> exec_op c op
      | op, Some run -> run c op
    end
    else begin
      live.(i) <- false;
      decr remaining
    end
  done;
  Array.init n (fun i -> Gemmini.Controller.finish_time t.cores_arr.(i).controller)

let finish_time t =
  Array.fold_left
    (fun acc c -> max acc (Gemmini.Controller.finish_time c.controller))
    0 t.cores_arr
