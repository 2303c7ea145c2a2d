open Gem_sim
open Gem_util

type port = {
  read_timing : now:Time.cycles -> paddr:int -> bytes:int -> Time.cycles;
  write_timing : now:Time.cycles -> paddr:int -> bytes:int -> Time.cycles;
  read_data : (paddr:int -> n:int -> int array) option;
  write_data : (paddr:int -> int array -> unit) option;
  page_run :
    first:Time.cycles ->
    spacing:Time.cycles ->
    n:int ->
    paddr:int ->
    stride:int ->
    row_bytes:int ->
    write:bool ->
    Time.cycles;
}

let null_port =
  {
    read_timing = (fun ~now ~paddr:_ ~bytes:_ -> now);
    write_timing = (fun ~now ~paddr:_ ~bytes:_ -> now);
    read_data = None;
    write_data = None;
    page_run =
      (fun ~first ~spacing ~n ~paddr:_ ~stride:_ ~row_bytes:_ ~write:_ ->
        first + ((n - 1) * spacing));
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
  mutable run_page : int; (* physical base of the page a run lies in *)
  bus_cycles : Mathx.ceil_memo; (* bytes -> bus cycles *)
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
    run_page = 0;
    bus_cycles = Mathx.ceil_memo p.Params.dma_bus_bytes;
  }

let tlb t = t.tlb
let set_inject t plan = t.inject <- Some plan

let page_size = Gem_vm.Page_table.page_size

module P = Gem_obs.Profile

(* Split [vaddr, vaddr+bytes) at page boundaries; the DMA issues one
   translated request per segment. The engine {e blocks} on translation:
   the next segment's TLB lookup starts only after this segment has
   secured its bus slot, so TLB hit latency (and every miss) sits on the
   streaming critical path — precisely why the paper's 0-cycle filter
   registers pay off (Section V-A). This is the simulator's hottest loop
   (one iteration per page segment of every walked DMA row): the
   translation lands in the reused [t.tslot], and the (issue cursor,
   overall finish) come back through [t.w_cursor] / [t.w_finish], so a
   timing-only walk allocates nothing. [data], in functional mode, moves
   each segment's bytes before its timing is charged. *)
let rec seg_walk_go t ~write ~data cursor finish va remaining =
  if remaining <= 0 then begin
    t.w_cursor <- cursor;
    t.w_finish <- finish
  end
  else begin
    let slot = t.tslot in
    let in_page = page_size - (va land (page_size - 1)) in
    let seg = Int.min in_page remaining in
    Gem_vm.Hierarchy.translate_into t.tlb slot ~now:cursor ~vaddr:va ~write;
    let occupancy = Mathx.ceil_div_memo t.bus_cycles seg in
    let bus_done =
      Engine.acquire t.engine t.bus ~now:slot.Gem_vm.Hierarchy.s_finish
        ~occupancy
    in
    (* A segment's bus slot is the injection decision point: a fired
       Dma_error means this burst was dropped by the interconnect. *)
    (match t.inject with
    | Some plan when Inject.fire plan Inject.Dma_error ->
        Engine.trap t.engine
          (Fault.make ~core:t.core ~component:(Resource.name t.bus)
             ~cycle:bus_done
             (Fault.Dma_bus_error { vaddr = va; bytes = seg }))
    | _ -> ());
    let paddr = slot.Gem_vm.Hierarchy.s_paddr in
    (match data with None -> () | Some f -> f ~paddr ~bytes:seg);
    let seg_done =
      if write then t.port.write_timing ~now:bus_done ~paddr ~bytes:seg
      else t.port.read_timing ~now:bus_done ~paddr ~bytes:seg
    in
    seg_walk_go t ~write ~data bus_done
      (if seg_done > finish then seg_done else finish)
      (va + seg) (remaining - seg)
  end

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

(* --- rows ------------------------------------------------------------------

   On a quiet SoC a row's translation is a foregone conclusion when it
   lies wholly inside the page of row [r-1]'s last byte (it hits where row
   [r-1] left the page: the filter register, or the private TLB with
   filters off), or, for row 0, inside the page its direction's filter
   register holds when the last request in that direction translated it
   too (a filter hit). Its bus slot follows the previous one back to back
   (the private bus is busy exactly until the issue cursor). A run of such
   rows is charged at once: one {!Gem_vm.Hierarchy.repeat}, one
   {!Resource.acquire_run} on the bus, and one [port.page_run] that
   charges every line's port slot, cache lookup and DRAM fill in order,
   so every counter and resource state ends as the per-row walk leaves it.
   Nothing observes the rows in between, so the path is taken only when
   nothing could: a timing-only transfer on a quiet engine, no injection
   plan (which rolls once per segment), no hierarchy observer. *)

(* How many rows from [r] on lie wholly inside such a page, counted from
   the stride's sign in O(1); the page's physical base lands in
   [t.run_page]. [t.tslot] holds the translation of row [r-1]'s last
   page, or another direction's: row 0 takes the filter's. *)
let run_length t ~vaddr ~stride_bytes ~rows ~row_bytes ~write r =
  let row_va = vaddr + (r * stride_bytes) in
  let mask = lnot (page_size - 1) in
  let page =
    if r > 0 then begin
      t.run_page <- t.tslot.Gem_vm.Hierarchy.s_paddr land mask;
      (row_va - stride_bytes + row_bytes - 1) land mask
    end
    else
      let vpn = Gem_vm.Page_table.vpn_of_vaddr row_va in
      let ppn = Gem_vm.Hierarchy.repeat_ppn t.tlb ~write ~vpn in
      t.run_page <- ppn lsl Gem_vm.Page_table.page_bits;
      if ppn = Gem_vm.Tlb.miss then -1 else row_va land mask
  in
  if page < 0 then 0
  else
    Mathx.rows_within ~lo:page ~hi:(page + page_size - row_bytes)
      ~first:row_va ~stride:stride_bytes ~n:(rows - r)

(* Charges [n] page-run rows, the first at [row_va], issued from [cursor];
   results land in [t.w_cursor] / [t.w_finish] like a segment walk's. *)
let page_run t ~cursor ~n ~row_va ~stride_bytes ~row_bytes ~write =
  t.row_requests <- t.row_requests + n;
  let lat = Gem_vm.Hierarchy.repeat t.tlb ~write ~n in
  let occupancy = Mathx.ceil_div_memo t.bus_cycles row_bytes in
  let last_bus =
    Resource.acquire_run t.bus ~now:(cursor + lat) ~gap:lat ~occupancy ~n
  in
  let spacing = lat + occupancy in
  let paddr = t.run_page lor (row_va land (page_size - 1)) in
  t.w_cursor <- last_bus;
  t.w_finish <-
    t.port.page_run ~first:(last_bus - ((n - 1) * spacing)) ~spacing ~n ~paddr
      ~stride:stride_bytes ~row_bytes ~write

(* Every row of [mvin] and [mvout] runs through here. Rows issue serially
   through the translate+bus path; memory latency of one row still
   overlaps the issue of the next. [data ~r ~off ~paddr ~bytes], in
   functional mode, moves bytes [off, off+bytes) of row [r]. Like a
   segment walk, the transfer's (issue cursor, finish) land in
   [t.w_cursor] / [t.w_finish]. *)
let transfer_rows t ~now ~vaddr ~stride_bytes ~rows ~row_bytes ~write ~data =
  let coalesce =
    Option.is_none data
    && (not (Engine.live t.engine))
    && Option.is_none t.inject
    && Gem_vm.Hierarchy.quiet t.tlb
  in
  let cursor = ref now and finish = ref now in
  let r = ref 0 in
  while !r < rows do
    let row_va = vaddr + (!r * stride_bytes) in
    let n =
      if coalesce then
        run_length t ~vaddr ~stride_bytes ~rows ~row_bytes ~write !r
      else 0
    in
    if n > 0 then begin
      page_run t ~cursor:!cursor ~n ~row_va ~stride_bytes ~row_bytes ~write;
      r := !r + n
    end
    else begin
      t.row_requests <- t.row_requests + 1;
      let data =
        match data with
        | None -> None
        | Some f ->
            let row = !r and off = ref 0 in
            Some
              (fun ~paddr ~bytes ->
                f ~r:row ~off:!off ~paddr ~bytes;
                off := !off + bytes)
      in
      seg_walk_go t ~write ~data !cursor !cursor row_va row_bytes;
      incr r
    end;
    cursor := Int.max !cursor t.w_cursor;
    finish := Int.max !finish t.w_finish
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
  let rows_data, data =
    match t.port.read_data with
    | None -> ([||], None)
    | Some read ->
        let rows_data = Array.init rows (fun _ -> Array.make row_bytes 0) in
        ( rows_data,
          Some
            (fun ~r ~off ~paddr ~bytes ->
              Array.blit (read ~paddr ~n:bytes) 0 rows_data.(r) off bytes) )
  in
  transfer_rows t ~now ~vaddr ~stride_bytes ~rows ~row_bytes ~write:false ~data;
  t.bytes_in := !(t.bytes_in) + (rows * row_bytes);
  transfer_event t ~now ~dir:`Read ~bytes:(rows * row_bytes);
  burst_close t ~time:t.w_finish ~name:"dma-read";
  if !P.on then P.leave P.dma;
  rows_data

let mvout_common t ~now ~vaddr ~stride_bytes ~rows ~row_bytes ~data =
  if rows <= 0 || row_bytes <= 0 then invalid_arg "Dma.mvout: empty transfer";
  if !P.on then P.enter P.dma;
  burst_open t ~now ~name:"dma-write" ~rows ~bytes:(rows * row_bytes);
  let data =
    match (t.port.write_data, data) with
    | Some write, Some rows_data ->
        Some
          (fun ~r ~off ~paddr ~bytes ->
            write ~paddr (Array.sub rows_data.(r) off bytes))
    | _ -> None
  in
  transfer_rows t ~now ~vaddr ~stride_bytes ~rows ~row_bytes ~write:true ~data;
  t.bytes_out := !(t.bytes_out) + (rows * row_bytes);
  transfer_event t ~now ~dir:`Write ~bytes:(rows * row_bytes);
  burst_close t ~time:t.w_finish ~name:"dma-write";
  if !P.on then P.leave P.dma

let mvout t ~now ~vaddr ~stride_bytes ~rows_data ~row_bytes =
  let rows = Array.length rows_data in
  mvout_common t ~now ~vaddr ~stride_bytes ~rows ~row_bytes ~data:(Some rows_data)

let mvout_timing_rows t ~now ~vaddr ~stride_bytes ~rows ~row_bytes =
  mvout_common t ~now ~vaddr ~stride_bytes ~rows ~row_bytes ~data:None

let engine_free t = t.w_cursor
let finish t = t.w_finish
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
let codec =
  Snap.(
    obj
      [ field "bytes_in" int (fun t -> !(t.bytes_in)) (fun t v -> t.bytes_in := v);
        field "bytes_out" int (fun t -> !(t.bytes_out)) (fun t v -> t.bytes_out := v);
        field "row_requests" int (fun t -> t.row_requests) (fun t v -> t.row_requests <- v) ])
