open Gem_sim

type t = {
  page_table : Page_table.t;
  mem_read : now:Time.cycles -> paddr:int -> bytes:int -> Time.cycles;
  engine : Engine.t;
  walker : Resource.t;
  pte_cache_entries : int;
  pte_cache : (int, unit) Hashtbl.t; (* non-leaf PTE paddrs *)
  pte_cache_fifo : int Queue.t;
  mutable walks : int;
  mutable pte_reads : int;
  mutable pte_cache_hits : int;
  mutable total_walk_cycles : Time.cycles;
}

exception Page_fault of int

let create ?engine ?(name = "ptw") ?(pte_cache_entries = 64) ~page_table
    ~mem_read () =
  let engine = match engine with Some e -> e | None -> Engine.create () in
  {
    page_table;
    mem_read;
    engine;
    walker = Engine.resource engine ~kind:Engine.Ptw ~name;
    pte_cache_entries;
    pte_cache = Hashtbl.create (max 16 pte_cache_entries);
    pte_cache_fifo = Queue.create ();
    walks = 0;
    pte_reads = 0;
    pte_cache_hits = 0;
    total_walk_cycles = 0;
  }

let cache_insert t paddr =
  if t.pte_cache_entries > 0 && not (Hashtbl.mem t.pte_cache paddr) then begin
    if Queue.length t.pte_cache_fifo >= t.pte_cache_entries then
      Hashtbl.remove t.pte_cache (Queue.pop t.pte_cache_fifo);
    Hashtbl.add t.pte_cache paddr ();
    Queue.push paddr t.pte_cache_fifo
  end

let walk t ~now ~vpn =
  t.walks <- t.walks + 1;
  (* Wait for the (single) walker to become free. *)
  let start = Resource.next_free t.walker ~now in
  let pte_addrs, result = Page_table.walk t.page_table ~vpn in
  let n_levels = List.length pte_addrs in
  (* Each level's PTE read depends on the previous one completing; cached
     non-leaf levels are free. *)
  let finish =
    List.fold_left
      (fun (time, level) paddr ->
        let is_leaf = level = n_levels - 1 in
        let time' =
          if (not is_leaf) && Hashtbl.mem t.pte_cache paddr then begin
            t.pte_cache_hits <- t.pte_cache_hits + 1;
            time
          end
          else begin
            t.pte_reads <- t.pte_reads + 1;
            if not is_leaf then cache_insert t paddr;
            t.mem_read ~now:time ~paddr ~bytes:8
          end
        in
        (time', level + 1))
      (start, 0) pte_addrs
    |> fst
  in
  match result with
  | None ->
      (* A faulting walk must not commit the walker reservation: the trap
         unwinds past the requester, and an occupied walker would stall
         every later walk (including the re-walk after the fault is
         repaired) behind a request that never completed. *)
      raise (Page_fault vpn)
  | Some ppn ->
      (* Occupy the walker for the walk's duration so concurrent
         requesters queue behind it. *)
      Engine.occupy t.engine t.walker ~now ~start ~until:finish;
      t.total_walk_cycles <- t.total_walk_cycles + (finish - now);
      (ppn, finish)

let walks t = t.walks
let pte_reads t = t.pte_reads
let pte_cache_hits t = t.pte_cache_hits
let total_walk_cycles t = t.total_walk_cycles

let reset_stats t =
  t.walks <- 0;
  t.pte_reads <- 0;
  t.pte_cache_hits <- 0;
  t.total_walk_cycles <- 0

(* The walker resource is engine-owned; what lives here is the PTE cache
   (FIFO order matters for future evictions) and the statistics. *)
let codec =
  Gem_util.Snap.(
    obj
      [ field "pte_cache" (list int)
          (fun t -> List.of_seq (Queue.to_seq t.pte_cache_fifo))
          (fun t cached ->
            if List.length cached > max t.pte_cache_entries 0 then
              fail "%d cached PTEs, capacity %d" (List.length cached) t.pte_cache_entries;
            Hashtbl.reset t.pte_cache;
            Queue.clear t.pte_cache_fifo;
            List.iter (fun paddr -> cache_insert t paddr) cached);
        field "walks" int (fun t -> t.walks) (fun t v -> t.walks <- v);
        field "pte_reads" int (fun t -> t.pte_reads) (fun t v -> t.pte_reads <- v);
        field "pte_cache_hits" int (fun t -> t.pte_cache_hits) (fun t v -> t.pte_cache_hits <- v);
        field "total_walk_cycles" int (fun t -> t.total_walk_cycles) (fun t v ->
            t.total_walk_cycles <- v) ])
