type entry = { mutable vpn : int; mutable ppn : int; mutable age : int }

type t = {
  entries : int;
  index : (int, entry) Hashtbl.t; (* vpn -> live entry *)
  slots : entry array;
  mutable used : int;
  mutable clock : int;
  mutable lookups : int;
  mutable hits : int;
}

let miss = -1

let create ~entries =
  if entries < 0 then invalid_arg "Tlb.create: negative size";
  {
    entries;
    index = Hashtbl.create (max 16 entries);
    slots = Array.init entries (fun _ -> { vpn = -1; ppn = -1; age = 0 });
    used = 0;
    clock = 0;
    lookups = 0;
    hits = 0;
  }

let entries t = t.entries

(* Every translation that misses the filter registers probes here, so a
   lookup returns the bare PPN (or [miss]) instead of an option-wrapped
   or boxed result. *)
let lookup t ~vpn =
  t.lookups <- t.lookups + 1;
  t.clock <- t.clock + 1;
  match Hashtbl.find t.index vpn with
  | e ->
      t.hits <- t.hits + 1;
      e.age <- t.clock;
      e.ppn
  | exception Not_found -> miss

let hit_again t ~vpn ~n =
  match Hashtbl.find t.index vpn with
  | e ->
      t.lookups <- t.lookups + n;
      t.hits <- t.hits + n;
      t.clock <- t.clock + n;
      e.age <- t.clock
  | exception Not_found -> invalid_arg "Tlb.hit_again: vpn not resident"

let probe t ~vpn =
  match Hashtbl.find_opt t.index vpn with Some e -> Some e.ppn | None -> None

let fill t ~vpn ~ppn =
  if t.entries > 0 then begin
    t.clock <- t.clock + 1;
    match Hashtbl.find_opt t.index vpn with
    | Some e ->
        e.ppn <- ppn;
        e.age <- t.clock
    | None ->
        let e =
          if t.used < t.entries then begin
            let e = t.slots.(t.used) in
            t.used <- t.used + 1;
            e
          end
          else begin
            (* Evict true LRU; the scan only runs on fills of a full TLB. *)
            let victim = ref t.slots.(0) in
            Array.iter (fun e -> if e.age < !victim.age then victim := e) t.slots;
            Hashtbl.remove t.index !victim.vpn;
            !victim
          end
        in
        e.vpn <- vpn;
        e.ppn <- ppn;
        e.age <- t.clock;
        Hashtbl.replace t.index vpn e
  end

let invalidate t ~vpn =
  match Hashtbl.find_opt t.index vpn with
  | None -> ()
  | Some e ->
      Hashtbl.remove t.index vpn;
      (* The slot stays allocated but becomes the LRU victim; evicting a
         vpn of -1 later is a harmless Hashtbl.remove of a missing key. *)
      e.vpn <- -1;
      e.ppn <- -1;
      e.age <- 0

let flush t =
  Array.iter
    (fun e ->
      e.vpn <- -1;
      e.ppn <- -1;
      e.age <- 0)
    t.slots;
  Hashtbl.reset t.index;
  t.used <- 0

let occupancy t = t.used

let lookups t = t.lookups
let hits t = t.hits
let misses t = t.lookups - t.hits
let hit_rate t = Gem_util.Stats.hit_rate ~hits:t.hits ~total:t.lookups

let reset_stats t =
  t.lookups <- 0;
  t.hits <- 0

let codec =
  Gem_util.Snap.(
    obj
      [ geometry "entries" int (fun t -> t.entries);
        field "slots" (array (ints 3))
          (fun t -> Array.map (fun e -> [| e.vpn; e.ppn; e.age |]) t.slots)
          (fun t saved ->
            if Array.length saved <> t.entries then
              fail "%d slots for %d entries" (Array.length saved) t.entries;
            Hashtbl.reset t.index;
            Array.iter2
              (fun e s ->
                e.vpn <- s.(0);
                e.ppn <- s.(1);
                e.age <- s.(2);
                (* Invalidated slots stay allocated but carry vpn = -1 and
                   must not re-enter the index. *)
                if e.vpn >= 0 then Hashtbl.replace t.index e.vpn e)
              t.slots saved);
        field "used" int (fun t -> t.used) (fun t v -> t.used <- v);
        field "clock" int (fun t -> t.clock) (fun t v -> t.clock <- v);
        field "lookups" int (fun t -> t.lookups) (fun t v -> t.lookups <- v);
        field "hits" int (fun t -> t.hits) (fun t v -> t.hits <- v) ])
