(* The vpn -> slot index, keyed on plain ints: the polymorphic table's
   generic hash and compare cost a C call each per lookup. A Fibonacci
   hash (the table keeps its low bits) spreads power-of-two vpn strides
   over the buckets; nothing iterates the table, so its order is moot. *)
module Index = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash vpn = (vpn * 0x9E3779B97F4A7C1) lsr 20
end)

(* Struct of arrays: slot [i] holds [vpns.(i)] -> [ppns.(i)], last used
   at clock [ages.(i)]; an invalid slot has vpn -1 and age 0. The index
   maps a resident vpn to its slot, so a hit allocates nothing and an
   eviction scans one flat int array. *)
type t = {
  entries : int;
  index : int Index.t; (* vpn -> slot *)
  vpns : int array;
  ppns : int array;
  ages : int array;
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
    index = Index.create (max 16 entries);
    vpns = Array.make entries (-1);
    ppns = Array.make entries (-1);
    ages = Array.make entries 0;
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
  match Index.find t.index vpn with
  | i ->
      t.hits <- t.hits + 1;
      t.ages.(i) <- t.clock;
      t.ppns.(i)
  | exception Not_found -> miss

let hit_again t ~vpn ~n =
  match Index.find t.index vpn with
  | i ->
      t.lookups <- t.lookups + n;
      t.hits <- t.hits + n;
      t.clock <- t.clock + n;
      t.ages.(i) <- t.clock
  | exception Not_found -> invalid_arg "Tlb.hit_again: vpn not resident"

let probe t ~vpn =
  match Index.find t.index vpn with
  | i -> Some t.ppns.(i)
  | exception Not_found -> None

(* The first slot of lowest age: true LRU, or the first invalidated slot
   (age 0). A plain loop over ints, so an eviction allocates nothing. *)
let lru_slot t =
  let ages = t.ages in
  let best = ref 0 in
  for i = 1 to Array.length ages - 1 do
    if Array.unsafe_get ages i < Array.unsafe_get ages !best then best := i
  done;
  !best

let fill t ~vpn ~ppn =
  if t.entries > 0 then begin
    t.clock <- t.clock + 1;
    match Index.find t.index vpn with
    | i ->
        t.ppns.(i) <- ppn;
        t.ages.(i) <- t.clock
    | exception Not_found ->
        let i =
          if t.used < t.entries then begin
            t.used <- t.used + 1;
            t.used - 1
          end
          else begin
            (* The scan only runs on fills of a full TLB. Evicting an
               invalidated slot removes vpn -1, which is never indexed. *)
            let i = lru_slot t in
            Index.remove t.index t.vpns.(i);
            i
          end
        in
        t.vpns.(i) <- vpn;
        t.ppns.(i) <- ppn;
        t.ages.(i) <- t.clock;
        Index.replace t.index vpn i
  end

let invalidate t ~vpn =
  match Index.find t.index vpn with
  | exception Not_found -> ()
  | i ->
      Index.remove t.index vpn;
      (* The slot stays allocated but becomes the LRU victim. *)
      t.vpns.(i) <- -1;
      t.ppns.(i) <- -1;
      t.ages.(i) <- 0

let flush t =
  Array.fill t.vpns 0 t.entries (-1);
  Array.fill t.ppns 0 t.entries (-1);
  Array.fill t.ages 0 t.entries 0;
  Index.reset t.index;
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
          (fun t ->
            Array.init t.entries (fun i -> [| t.vpns.(i); t.ppns.(i); t.ages.(i) |]))
          (fun t saved ->
            if Array.length saved <> t.entries then
              fail "%d slots for %d entries" (Array.length saved) t.entries;
            Index.reset t.index;
            Array.iteri
              (fun i s ->
                t.vpns.(i) <- s.(0);
                t.ppns.(i) <- s.(1);
                t.ages.(i) <- s.(2);
                (* Invalidated slots stay allocated but carry vpn = -1 and
                   must not re-enter the index. *)
                if s.(0) >= 0 then Index.replace t.index s.(0) i)
              saved);
        field "used" int (fun t -> t.used) (fun t v -> t.used <- v);
        field "clock" int (fun t -> t.clock) (fun t v -> t.clock <- v);
        field "lookups" int (fun t -> t.lookups) (fun t v -> t.lookups <- v);
        field "hits" int (fun t -> t.hits) (fun t v -> t.hits <- v) ])
