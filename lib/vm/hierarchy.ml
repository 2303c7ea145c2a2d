open Gem_sim

type config = {
  private_entries : int;
  shared_entries : int;
  filter_registers : bool;
  private_hit_latency : Time.cycles;
  shared_hit_latency : Time.cycles;
}

let default_config =
  {
    private_entries = 4;
    shared_entries = 0;
    filter_registers = true;
    private_hit_latency = 2;
    shared_hit_latency = 8;
  }

type filter = { mutable vpn : int; mutable ppn : int }

type inject_hooks = {
  plan : Inject.t;
  unmap_cb : (vaddr:int -> unit) option;
}

type t = {
  cfg : config;
  name : string;
  core : int;
  engine : Engine.t;
  mutable inject : inject_hooks option;
  private_tlb : Tlb.t;
  shared_tlb : Tlb.t;
  ptw : Ptw.t;
  filter_read : filter;
  filter_write : filter;
  (* last vpn per direction, tracked regardless of filter enablement, for
     the paper's page-locality statistics *)
  mutable last_read_vpn : int;
  mutable last_write_vpn : int;
  mutable reads : int;
  mutable writes : int;
  mutable same_page_reads : int;
  mutable same_page_writes : int;
  mutable requests : int;
  mutable filter_hits : int;
  mutable private_hits : int;
  mutable shared_hits : int;
  mutable walks : int;
  mutable stall_cycles : Time.cycles;
  mutable observer : (Time.cycles -> level -> unit) option;
}

and level = Filter | Private | Shared | Walk

type outcome = { paddr : int; finish : Time.cycles; level : level }

let level_label = function
  | Filter -> "filter"
  | Private -> "private"
  | Shared -> "shared"
  | Walk -> "walk"

let create ?engine ?(name = "tlb") ?(core = -1) cfg ~ptw =
  if cfg.private_entries <= 0 then
    invalid_arg "Hierarchy.create: private TLB needs at least one entry";
  if cfg.shared_entries < 0 then
    invalid_arg "Hierarchy.create: negative shared TLB size";
  if cfg.private_hit_latency < 0 || cfg.shared_hit_latency < 0 then
    invalid_arg "Hierarchy.create: negative hit latency";
  let engine = match engine with Some e -> e | None -> Engine.create () in
  let t =
    {
      cfg;
      name;
      core;
      engine;
      inject = None;
      private_tlb = Tlb.create ~entries:cfg.private_entries;
      shared_tlb = Tlb.create ~entries:cfg.shared_entries;
      ptw;
      filter_read = { vpn = -1; ppn = -1 };
      filter_write = { vpn = -1; ppn = -1 };
      last_read_vpn = -1;
      last_write_vpn = -1;
      reads = 0;
      writes = 0;
      same_page_reads = 0;
      same_page_writes = 0;
      requests = 0;
      filter_hits = 0;
      private_hits = 0;
      shared_hits = 0;
      walks = 0;
      stall_cycles = 0;
      observer = None;
    }
  in
  Engine.register_probe engine ~kind:Engine.Tlb ~name ~sample:(fun () ->
      {
        Engine.p_requests = t.requests;
        p_busy = 0;
        p_wait = t.stall_cycles;
        p_note =
          Printf.sprintf "%.1f%% effective hit, %d walks"
            (100.
            *. Gem_util.Stats.hit_rate
                 ~hits:(t.filter_hits + t.private_hits)
                 ~total:t.requests)
            t.walks;
      });
  t

let config t = t.cfg
let set_observer t obs = t.observer <- obs
let set_inject t ~plan ?unmap () = t.inject <- Some { plan; unmap_cb = unmap }

let invalidate t ~vpn =
  Tlb.invalidate t.private_tlb ~vpn;
  Tlb.invalidate t.shared_tlb ~vpn;
  if t.filter_read.vpn = vpn then begin
    t.filter_read.vpn <- -1;
    t.filter_read.ppn <- -1
  end;
  if t.filter_write.vpn = vpn then begin
    t.filter_write.vpn <- -1;
    t.filter_write.ppn <- -1
  end

let observe t now level =
  (match t.observer with None -> () | Some f -> f now level);
  if Engine.live t.engine then
    Engine.emit t.engine
      (Engine.Translate
         { component = t.name; time = now; level = level_label level })
  else Engine.observe t.engine now

let note_locality t ~vpn ~write =
  if write then begin
    t.writes <- t.writes + 1;
    if t.last_write_vpn = vpn then t.same_page_writes <- t.same_page_writes + 1;
    t.last_write_vpn <- vpn
  end
  else begin
    t.reads <- t.reads + 1;
    if t.last_read_vpn = vpn then t.same_page_reads <- t.same_page_reads + 1;
    t.last_read_vpn <- vpn
  end

(* The DMA translates every page-sized segment of every row, so this is
   one of the hottest calls in a run. [translate_into] writes the result
   into a caller-owned mutable slot instead of allocating an outcome
   record per request; {!translate} keeps the record-returning interface
   for cold callers. *)
type slot = {
  mutable s_paddr : int;
  mutable s_finish : Time.cycles;
  mutable s_level : level;
}

let make_slot () = { s_paddr = 0; s_finish = 0; s_level = Filter }

(* Top-level so the compiler emits direct calls instead of allocating a
   closure over [offset] on every translation — this sits on the
   allocation-free quiet path the test suite pins down. *)
let paddr_of ~offset ppn = (ppn lsl Page_table.page_bits) lor offset

(* Top-level for the same reason: a local refill helper would close over
   [t], [filter] and [vpn] on every translation that misses the filter. *)
let fill_filter t filter ~vpn ppn =
  if t.cfg.filter_registers then begin
    filter.vpn <- vpn;
    filter.ppn <- ppn
  end

let translate_into t slot ~now ~vaddr ~write =
  let vpn = Page_table.vpn_of_vaddr vaddr in
  let offset = Page_table.page_offset vaddr in
  (* Injection rolls happen before the lookup so a fired unmap or drop is
     seen by this very request. Roll order is fixed (unmap, then drop) so
     a given seed replays the same trace. *)
  (match t.inject with
  | None -> ()
  | Some { plan; unmap_cb } ->
      if Inject.fire plan Inject.Unmap then (
        (match unmap_cb with None -> () | Some f -> f ~vaddr);
        invalidate t ~vpn);
      if Inject.fire plan Inject.Tlb_drop then invalidate t ~vpn);
  t.requests <- t.requests + 1;
  note_locality t ~vpn ~write;
  let filter = if write then t.filter_write else t.filter_read in
  if t.cfg.filter_registers && filter.vpn = vpn then begin
    (* Filter hit: 0-cycle translation, skips the TLB entirely. *)
    t.filter_hits <- t.filter_hits + 1;
    observe t now Filter;
    slot.s_paddr <- paddr_of ~offset filter.ppn;
    slot.s_finish <- now;
    slot.s_level <- Filter
  end
  else begin
    let ppn = Tlb.lookup t.private_tlb ~vpn in
    if ppn <> Tlb.miss then begin
      t.private_hits <- t.private_hits + 1;
      fill_filter t filter ~vpn ppn;
      observe t now Private;
      let finish = now + t.cfg.private_hit_latency in
      t.stall_cycles <- t.stall_cycles + (finish - now);
      slot.s_paddr <- paddr_of ~offset ppn;
      slot.s_finish <- finish;
      slot.s_level <- Private
    end
    else
      let ppn = Tlb.lookup t.shared_tlb ~vpn in
      if ppn <> Tlb.miss then begin
        t.shared_hits <- t.shared_hits + 1;
        Tlb.fill t.private_tlb ~vpn ~ppn;
        fill_filter t filter ~vpn ppn;
        observe t now Shared;
        let finish =
          now + t.cfg.private_hit_latency + t.cfg.shared_hit_latency
        in
        t.stall_cycles <- t.stall_cycles + (finish - now);
        slot.s_paddr <- paddr_of ~offset ppn;
        slot.s_finish <- finish;
        slot.s_level <- Shared
      end
      else begin
        t.walks <- t.walks + 1;
        observe t now Walk;
        let miss_time =
          now + t.cfg.private_hit_latency + t.cfg.shared_hit_latency
        in
        let ppn, finish =
          try Ptw.walk t.ptw ~now:miss_time ~vpn
          with Ptw.Page_fault vpn ->
            Engine.trap t.engine
              (Fault.make ~core:t.core ~component:t.name ~cycle:miss_time
                 (Fault.Page_fault { vpn; write }))
        in
        Tlb.fill t.private_tlb ~vpn ~ppn;
        Tlb.fill t.shared_tlb ~vpn ~ppn;
        fill_filter t filter ~vpn ppn;
        t.stall_cycles <- t.stall_cycles + (finish - now);
        slot.s_paddr <- paddr_of ~offset ppn;
        slot.s_finish <- finish;
        slot.s_level <- Walk
      end
  end

let quiet t = Option.is_none t.inject && Option.is_none t.observer

(* [n] more requests to the page the last request in this direction
   translated: a filter hit with filter registers on (the last request
   filled them), else a private-TLB hit (the last request hit or filled
   the private TLB). Counters move exactly as [n] calls of
   {!translate_into} would move them on a quiet hierarchy. *)
let repeat t ~write ~n =
  let vpn = if write then t.last_write_vpn else t.last_read_vpn in
  t.requests <- t.requests + n;
  if write then begin
    t.writes <- t.writes + n;
    t.same_page_writes <- t.same_page_writes + n
  end
  else begin
    t.reads <- t.reads + n;
    t.same_page_reads <- t.same_page_reads + n
  end;
  if t.cfg.filter_registers then begin
    let filter = if write then t.filter_write else t.filter_read in
    if filter.vpn <> vpn then
      invalid_arg "Hierarchy.repeat: filter register lost the page";
    t.filter_hits <- t.filter_hits + n;
    0
  end
  else begin
    Tlb.hit_again t.private_tlb ~vpn ~n;
    t.private_hits <- t.private_hits + n;
    t.stall_cycles <- t.stall_cycles + (n * t.cfg.private_hit_latency);
    t.cfg.private_hit_latency
  end

(* A request to [vpn] is such a repeat, and needs no lookup, when filter
   registers are on and both the filter for its direction and the last
   request in that direction hold [vpn] (a faulting walk moves the
   latter but not the former). *)
let repeat_ppn t ~write ~vpn =
  let filter = if write then t.filter_write else t.filter_read in
  let last = if write then t.last_write_vpn else t.last_read_vpn in
  if t.cfg.filter_registers && filter.vpn = vpn && last = vpn then filter.ppn
  else Tlb.miss

let translate t ~now ~vaddr ~write =
  let slot = make_slot () in
  translate_into t slot ~now ~vaddr ~write;
  { paddr = slot.s_paddr; finish = slot.s_finish; level = slot.s_level }

let flush t =
  Tlb.flush t.private_tlb;
  Tlb.flush t.shared_tlb;
  t.filter_read.vpn <- -1;
  t.filter_write.vpn <- -1;
  t.last_read_vpn <- -1;
  t.last_write_vpn <- -1

let requests t = t.requests
let filter_hits t = t.filter_hits
let private_hits t = t.private_hits
let shared_hits t = t.shared_hits
let walks t = t.walks

let effective_hit_rate t =
  Gem_util.Stats.hit_rate ~hits:(t.filter_hits + t.private_hits) ~total:t.requests

let same_page_fraction_reads t =
  Gem_util.Stats.hit_rate ~hits:t.same_page_reads ~total:t.reads

let same_page_fraction_writes t =
  Gem_util.Stats.hit_rate ~hits:t.same_page_writes ~total:t.writes

let translation_stall_cycles t = t.stall_cycles

(* The hierarchy owns the PTW in the SoC wiring, so its snapshot nests the
   walker's. Injection plan state is snapshotted at the SoC level (the
   plan is shared with the DMA); only the translation state lives here. *)
let codec =
  let filter key get =
    Gem_util.Snap.field key (Gem_util.Snap.ints 2)
      (fun t -> [| (get t).vpn; (get t).ppn |])
      (fun t v ->
        (get t).vpn <- v.(0);
        (get t).ppn <- v.(1))
  in
  Gem_util.Snap.(
    obj
      [ sub "private_tlb" Tlb.codec (fun t -> t.private_tlb);
        sub "shared_tlb" Tlb.codec (fun t -> t.shared_tlb);
        sub "ptw" Ptw.codec (fun t -> t.ptw);
        filter "filter_read" (fun t -> t.filter_read);
        filter "filter_write" (fun t -> t.filter_write);
        field "last_read_vpn" int (fun t -> t.last_read_vpn) (fun t v -> t.last_read_vpn <- v);
        field "last_write_vpn" int (fun t -> t.last_write_vpn) (fun t v -> t.last_write_vpn <- v);
        field "reads" int (fun t -> t.reads) (fun t v -> t.reads <- v);
        field "writes" int (fun t -> t.writes) (fun t v -> t.writes <- v);
        field "same_page_reads" int (fun t -> t.same_page_reads)
          (fun t v -> t.same_page_reads <- v);
        field "same_page_writes" int (fun t -> t.same_page_writes)
          (fun t v -> t.same_page_writes <- v);
        field "requests" int (fun t -> t.requests) (fun t v -> t.requests <- v);
        field "filter_hits" int (fun t -> t.filter_hits) (fun t v -> t.filter_hits <- v);
        field "private_hits" int (fun t -> t.private_hits) (fun t v -> t.private_hits <- v);
        field "shared_hits" int (fun t -> t.shared_hits) (fun t v -> t.shared_hits <- v);
        field "walks" int (fun t -> t.walks) (fun t v -> t.walks <- v);
        field "stall_cycles" int (fun t -> t.stall_cycles) (fun t v -> t.stall_cycles <- v) ])

let reset_stats t =
  Tlb.reset_stats t.private_tlb;
  Tlb.reset_stats t.shared_tlb;
  t.reads <- 0;
  t.writes <- 0;
  t.same_page_reads <- 0;
  t.same_page_writes <- 0;
  t.requests <- 0;
  t.filter_hits <- 0;
  t.private_hits <- 0;
  t.shared_hits <- 0;
  t.walks <- 0;
  t.stall_cycles <- 0
