open Gem_sim
open Gem_util

type port = {
  read_timing : now:Time.cycles -> paddr:int -> bytes:int -> Time.cycles;
  write_timing : now:Time.cycles -> paddr:int -> bytes:int -> Time.cycles;
  read_data : (paddr:int -> n:int -> int array) option;
  write_data : (paddr:int -> int array -> unit) option;
  line_bytes : int;
  hit_run :
    first:Time.cycles ->
    spacing:Time.cycles ->
    n:int ->
    paddr:int ->
    write:bool ->
    Time.cycles;
}

let null_port =
  {
    read_timing = (fun ~now ~paddr:_ ~bytes:_ -> now);
    write_timing = (fun ~now ~paddr:_ ~bytes:_ -> now);
    read_data = None;
    write_data = None;
    line_bytes = 0;
    hit_run =
      (fun ~first ~spacing ~n ~paddr:_ ~write:_ -> first + ((n - 1) * spacing));
  }

type t = {
  p : Params.t;
  port : port;
  tlb : Gem_vm.Hierarchy.t;
  engine : Engine.t;
  bus : Resource.t; (* the accelerator's private DMA link *)
  bytes_in : int ref;
  bytes_out : int ref;
  mutable row_requests : int;
  core : int;
  mutable inject : Inject.t option;
  (* Reused scratch for the timing-only segment walk: one transfer is in
     flight per DMA at a time, so a single translation slot plus two
     result cells make the whole walk allocation-free. *)
  tslot : Gem_vm.Hierarchy.slot;
  mutable w_cursor : Time.cycles;
  mutable w_finish : Time.cycles;
  (* Rows whose addresses agree above this bit share one L2 line and one
     page; -1 when the port models no lines and rows are never coalesced. *)
  run_shift : int;
}

let create ?engine ?(name = "dma") ?(core = -1) p ~port ~tlb =
  let engine = match engine with Some e -> e | None -> Engine.create () in
  let bytes_in = ref 0 and bytes_out = ref 0 in
  let bus =
    Engine.resource engine ~kind:Engine.Dma ~name ~note:(fun () ->
        Printf.sprintf "%s B in, %s B out"
          (Gem_util.Table.fmt_int !bytes_in)
          (Gem_util.Table.fmt_int !bytes_out))
  in
  {
    p = Params.validate_exn p;
    port;
    tlb;
    engine;
    bus;
    bytes_in;
    bytes_out;
    row_requests = 0;
    core;
    inject = None;
    tslot = Gem_vm.Hierarchy.make_slot ();
    w_cursor = 0;
    w_finish = 0;
    run_shift =
      (if port.line_bytes > 0 then
         min (Mathx.log2_exact port.line_bytes) Gem_vm.Page_table.page_bits
       else -1);
  }

let tlb t = t.tlb
let set_inject t plan = t.inject <- Some plan

type transfer = {
  engine_free : Time.cycles;
  finish : Time.cycles;
  rows_data : int array array;
}

let page_size = Gem_vm.Page_table.page_size

module P = Gem_obs.Profile

(* Split [vaddr, vaddr+bytes) at page boundaries; the DMA issues one
   translated request per segment. The engine {e blocks} on translation:
   the next segment's TLB lookup starts only after this segment has
   secured its bus slot, so TLB hit latency (and every miss) sits on the
   streaming critical path — precisely why the paper's 0-cycle filter
   registers pay off (Section V-A). Returns (issue cursor, overall
   finish). *)
let for_segments t ~now ~vaddr ~bytes ~write ~f =
  let cursor = ref now in
  let finish = ref now in
  let va = ref vaddr in
  let remaining = ref bytes in
  while !remaining > 0 do
    let in_page = page_size - (!va land (page_size - 1)) in
    let seg = min in_page !remaining in
    let outcome = Gem_vm.Hierarchy.translate t.tlb ~now:!cursor ~vaddr:!va ~write in
    let occupancy = Mathx.ceil_div seg t.p.Params.dma_bus_bytes in
    let bus_done =
      Engine.acquire t.engine t.bus ~now:outcome.Gem_vm.Hierarchy.finish
        ~occupancy
    in
    (* A segment's bus slot is the injection decision point: a fired
       Dma_error means this burst was dropped by the interconnect. *)
    (match t.inject with
    | Some plan when Inject.fire plan Inject.Dma_error ->
        Engine.trap t.engine
          (Fault.make ~core:t.core ~component:(Resource.name t.bus)
             ~cycle:bus_done
             (Fault.Dma_bus_error { vaddr = !va; bytes = seg }))
    | _ -> ());
    let seg_done = f ~now:bus_done ~vaddr:!va ~paddr:outcome.Gem_vm.Hierarchy.paddr ~bytes:seg in
    cursor := bus_done;
    finish := max !finish seg_done;
    va := !va + seg;
    remaining := !remaining - seg
  done;
  (!cursor, !finish)

(* The timing-only walk: identical traversal and event order to
   {!for_segments}, but the port timing callback is invoked directly and
   the translation lands in the reused [t.tslot] — no closure, no outcome
   record, no refs, no result tuple. This is the simulator's hottest
   loop (one iteration per page segment of every DMA row), so results
   come back through [t.w_cursor] / [t.w_finish]. *)
let rec seg_walk_go t ~write cursor finish va remaining =
  if remaining <= 0 then begin
    t.w_cursor <- cursor;
    t.w_finish <- finish
  end
  else begin
    let slot = t.tslot in
    let in_page = page_size - (va land (page_size - 1)) in
    let seg = min in_page remaining in
    Gem_vm.Hierarchy.translate_into t.tlb slot ~now:cursor ~vaddr:va ~write;
    let occupancy = Mathx.ceil_div seg t.p.Params.dma_bus_bytes in
    let bus_done =
      Engine.acquire t.engine t.bus ~now:slot.Gem_vm.Hierarchy.s_finish
        ~occupancy
    in
    (match t.inject with
    | Some plan when Inject.fire plan Inject.Dma_error ->
        Engine.trap t.engine
          (Fault.make ~core:t.core ~component:(Resource.name t.bus)
             ~cycle:bus_done
             (Fault.Dma_bus_error { vaddr = va; bytes = seg }))
    | _ -> ());
    let paddr = slot.Gem_vm.Hierarchy.s_paddr in
    let seg_done =
      if write then t.port.write_timing ~now:bus_done ~paddr ~bytes:seg
      else t.port.read_timing ~now:bus_done ~paddr ~bytes:seg
    in
    seg_walk_go t ~write bus_done
      (if seg_done > finish then seg_done else finish)
      (va + seg) (remaining - seg)
  end

let seg_walk_timing t ~now ~vaddr ~bytes ~write =
  seg_walk_go t ~write now now vaddr bytes

(* One span per burst on the bus track (cat "dma"): open at request time,
   close at overall finish. Rendered async so overlapping bursts (memory
   latency of one row under the issue of the next command) display
   faithfully. *)
let burst_open t ~now ~name ~rows ~bytes =
  if Engine.live t.engine then
    Engine.emit t.engine
      (Engine.Span_open
         {
           component = Resource.name t.bus;
           time = now;
           name;
           cat = "dma";
           args =
             [ ("rows", string_of_int rows); ("bytes", string_of_int bytes) ];
         })
  else Engine.observe t.engine now

let burst_close t ~time ~name =
  if Engine.live t.engine then
    Engine.emit t.engine
      (Engine.Span_close { component = Resource.name t.bus; time; name })
  else Engine.observe t.engine time

(* --- timing-only rows -------------------------------------------------------

   Row [r] > 0 that lies wholly inside the L2 line and page the last byte
   of row [r-1] touched is a foregone conclusion on a quiet SoC: its
   translation hits where row [r-1] left the page (the filter register, or
   the private TLB with filters off), its bus slot follows the previous
   one back to back (the bus is busy exactly until the issue cursor), and
   its L2 access hits the most recently used line. A run of such rows is
   charged at once: the hierarchy, bus, L2 port and cache counters move
   exactly as the per-row walk would move them, and the port's max-plus
   recurrence still runs once per row against whatever other requesters
   left on it. Nothing observes the rows in between, so the path is taken
   only when nothing could: a quiet engine, no injection plan (which rolls
   once per segment), no hierarchy observer. *)

(* How many rows from [r] on lie wholly inside the block (line and page)
   of row [r-1]'s last byte. Top-level so the scan builds no closure. *)
let rec run_end ~shift ~key ~vaddr ~stride_bytes ~rows ~row_bytes j =
  if j >= rows then j
  else
    let va = vaddr + (j * stride_bytes) in
    if va asr shift = key && (va + row_bytes - 1) asr shift = key then
      run_end ~shift ~key ~vaddr ~stride_bytes ~rows ~row_bytes (j + 1)
    else j

let rec bus_run bus ~arrival_gap ~occupancy n now =
  let bus_done =
    Resource.acquire bus ~now:(now + arrival_gap) ~occupancy
  in
  if n = 1 then bus_done
  else bus_run bus ~arrival_gap ~occupancy (n - 1) bus_done

(* Charges [n] coalesced rows issued from [cursor]; results land in
   [t.w_cursor] / [t.w_finish] like a segment walk's. *)
let charge_run t ~cursor ~n ~row_va ~row_bytes ~write =
  t.row_requests <- t.row_requests + n;
  let lat = Gem_vm.Hierarchy.repeat t.tlb ~write ~n in
  let occupancy = Mathx.ceil_div row_bytes t.p.Params.dma_bus_bytes in
  let last_bus = bus_run t.bus ~arrival_gap:lat ~occupancy n cursor in
  let spacing = lat + occupancy in
  (* [t.tslot] still holds the translation of row [r-1]'s last page. *)
  let paddr =
    t.tslot.Gem_vm.Hierarchy.s_paddr land lnot (page_size - 1)
    lor (row_va land (page_size - 1))
  in
  let finish =
    t.port.hit_run ~first:(last_bus - ((n - 1) * spacing)) ~spacing ~n ~paddr
      ~write
  in
  Engine.observe t.engine finish;
  t.w_cursor <- last_bus;
  t.w_finish <- finish

(* Every timing-only row of [mvin] and [mvout] runs through here. Rows
   issue serially through the translate+bus path; memory latency of one
   row still overlaps the issue of the next. Like a segment walk, the
   transfer's (issue cursor, finish) land in [t.w_cursor] / [t.w_finish]. *)
let timing_rows t ~now ~vaddr ~stride_bytes ~rows ~row_bytes ~write =
  let shift = t.run_shift in
  let coalesce =
    shift >= 0
    && (not (Engine.live t.engine))
    && Option.is_none t.inject
    && Gem_vm.Hierarchy.quiet t.tlb
  in
  let cursor = ref now and finish = ref now in
  let r = ref 0 in
  while !r < rows do
    let row_va = vaddr + (!r * stride_bytes) in
    let n =
      if coalesce && !r > 0 then
        let key = (row_va - stride_bytes + row_bytes - 1) asr shift in
        run_end ~shift ~key ~vaddr ~stride_bytes ~rows ~row_bytes !r - !r
      else 0
    in
    if n > 0 then begin
      charge_run t ~cursor:!cursor ~n ~row_va ~row_bytes ~write;
      r := !r + n
    end
    else begin
      t.row_requests <- t.row_requests + 1;
      seg_walk_timing t ~now:!cursor ~vaddr:row_va ~bytes:row_bytes ~write;
      incr r
    end;
    cursor := max !cursor t.w_cursor;
    finish := max !finish t.w_finish
  done;
  t.w_cursor <- !cursor;
  t.w_finish <- !finish

let transfer_event t ~now ~dir ~bytes =
  if Engine.live t.engine then
    Engine.emit t.engine
      (Engine.Transfer { component = Resource.name t.bus; time = now; dir; bytes })

let mvin t ~now ~vaddr ~stride_bytes ~rows ~row_bytes =
  if rows <= 0 || row_bytes <= 0 then invalid_arg "Dma.mvin: empty transfer";
  if !P.on then P.enter P.dma;
  burst_open t ~now ~name:"dma-read" ~rows ~bytes:(rows * row_bytes);
  let rows_data =
    match t.port.read_data with
    | None ->
        timing_rows t ~now ~vaddr ~stride_bytes ~rows ~row_bytes ~write:false;
        [||]
    | Some read ->
        let rows_data = Array.make rows [||] in
        let cursor = ref now in
        let finish = ref now in
        for r = 0 to rows - 1 do
          t.row_requests <- t.row_requests + 1;
          let buf = Array.make row_bytes 0 in
          let written = ref 0 in
          let row_cursor, row_done =
            for_segments t ~now:!cursor ~vaddr:(vaddr + (r * stride_bytes))
              ~bytes:row_bytes ~write:false
              ~f:(fun ~now ~vaddr:_ ~paddr ~bytes ->
                let seg = read ~paddr ~n:bytes in
                Array.blit seg 0 buf !written bytes;
                written := !written + bytes;
                t.port.read_timing ~now ~paddr ~bytes)
          in
          rows_data.(r) <- buf;
          cursor := max !cursor row_cursor;
          finish := max !finish row_done
        done;
        t.w_cursor <- !cursor;
        t.w_finish <- !finish;
        rows_data
  in
  t.bytes_in := !(t.bytes_in) + (rows * row_bytes);
  transfer_event t ~now ~dir:`Read ~bytes:(rows * row_bytes);
  burst_close t ~time:t.w_finish ~name:"dma-read";
  if !P.on then P.leave P.dma;
  { engine_free = t.w_cursor; finish = t.w_finish; rows_data }

let mvout_common t ~now ~vaddr ~stride_bytes ~rows ~row_bytes ~data =
  if rows <= 0 || row_bytes <= 0 then invalid_arg "Dma.mvout: empty transfer";
  if !P.on then P.enter P.dma;
  burst_open t ~now ~name:"dma-write" ~rows ~bytes:(rows * row_bytes);
  (match (t.port.write_data, data) with
    | Some write, Some rows_data ->
        let cursor = ref now in
        let finish = ref now in
        for r = 0 to rows - 1 do
          t.row_requests <- t.row_requests + 1;
          let consumed = ref 0 in
          let row_cursor, row_done =
            for_segments t ~now:!cursor ~vaddr:(vaddr + (r * stride_bytes))
              ~bytes:row_bytes ~write:true
              ~f:(fun ~now ~vaddr:_ ~paddr ~bytes ->
                write ~paddr (Array.sub rows_data.(r) !consumed bytes);
                consumed := !consumed + bytes;
                t.port.write_timing ~now ~paddr ~bytes)
          in
          cursor := max !cursor row_cursor;
          finish := max !finish row_done
        done;
        t.w_cursor <- !cursor;
        t.w_finish <- !finish
    | _ -> timing_rows t ~now ~vaddr ~stride_bytes ~rows ~row_bytes ~write:true);
  t.bytes_out := !(t.bytes_out) + (rows * row_bytes);
  transfer_event t ~now ~dir:`Write ~bytes:(rows * row_bytes);
  burst_close t ~time:t.w_finish ~name:"dma-write";
  if !P.on then P.leave P.dma;
  (t.w_cursor, t.w_finish)

let mvout t ~now ~vaddr ~stride_bytes ~rows_data ~row_bytes =
  let rows = Array.length rows_data in
  mvout_common t ~now ~vaddr ~stride_bytes ~rows ~row_bytes ~data:(Some rows_data)

let mvout_timing_rows t ~now ~vaddr ~stride_bytes ~rows ~row_bytes =
  mvout_common t ~now ~vaddr ~stride_bytes ~rows ~row_bytes ~data:None

let bytes_in t = !(t.bytes_in)
let bytes_out t = !(t.bytes_out)
let row_requests t = t.row_requests
let busy_cycles t = Resource.busy_cycles t.bus
let bus t = t.bus

let reset_stats t =
  t.bytes_in := 0;
  t.bytes_out := 0;
  t.row_requests <- 0

let inject t = t.inject

(* The bus resource is engine-owned, the injection plan is shared with
   the TLB hierarchy and snapshotted once at the SoC level — only the
   byte/row counters live here. *)
let snapshot t =
  Jsonx.Obj
    [ ("bytes_in", Jsonx.Int !(t.bytes_in));
      ("bytes_out", Jsonx.Int !(t.bytes_out));
      ("row_requests", Jsonx.Int t.row_requests) ]

let restore t j =
  t.bytes_in := Snap.get_int "bytes_in" j;
  t.bytes_out := Snap.get_int "bytes_out" j;
  t.row_requests <- Snap.get_int "row_requests" j
