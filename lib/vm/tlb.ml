(* Struct of arrays: slot [i] holds [vpns.(i)] -> [ppns.(i)], last used
   at clock [ages.(i)]; an invalid slot has vpn -1 and age 0. Two int
   structures over the slots make every operation O(1) and allocation
   free:
   - the vpn index is chained through the slots: bucket [b] starts at
     slot [heads.(b)], slot [i]'s successor is [chain.(i)], -1 ends both.
     A Fibonacci hash spreads power-of-two vpn strides over the buckets;
   - the valid slots form a recency list, most recent first, linked by
     [newer]/[older]; [valid] slots are on it, so while none is
     invalidated its tail [lru] is the victim. *)
type t = {
  entries : int;
  mask : int; (* buckets - 1 *)
  heads : int array;
  chain : int array;
  vpns : int array;
  ppns : int array;
  ages : int array;
  newer : int array;
  older : int array;
  mutable mru : int; (* the list's head and tail, -1 when empty *)
  mutable lru : int;
  mutable valid : int;
  mutable used : int;
  mutable clock : int;
  mutable lookups : int;
  mutable hits : int;
}

let miss = -1

let create ~entries =
  if entries < 0 then invalid_arg "Tlb.create: negative size";
  let buckets = 1 lsl Gem_util.Mathx.log2_ceil (max 1 entries) in
  let slots () = Array.make entries (-1) in
  {
    entries; mask = buckets - 1; heads = Array.make buckets (-1);
    chain = slots (); vpns = slots (); ppns = slots ();
    ages = Array.make entries 0; newer = slots (); older = slots ();
    mru = -1; lru = -1; valid = 0; used = 0; clock = 0; lookups = 0; hits = 0;
  }

let entries t = t.entries
let[@inline] bucket t vpn = ((vpn * 0x9E3779B97F4A7C1) lsr 20) land t.mask

let rec find_from t vpn i =
  if i < 0 || Array.unsafe_get t.vpns i = vpn then i
  else find_from t vpn (Array.unsafe_get t.chain i)

(* The slot holding [vpn], or -1. *)
let find t vpn = find_from t vpn t.heads.(bucket t vpn)

let rec unchain t b i prev cur =
  if cur <> i then unchain t b i cur t.chain.(cur)
  else if prev < 0 then t.heads.(b) <- t.chain.(i)
  else t.chain.(prev) <- t.chain.(i)

let unlink t i =
  let n = t.newer.(i) and o = t.older.(i) in
  if n >= 0 then t.older.(n) <- o else t.mru <- o;
  if o >= 0 then t.newer.(o) <- n else t.lru <- n

let push_front t i =
  t.newer.(i) <- -1;
  t.older.(i) <- t.mru;
  if t.mru >= 0 then t.newer.(t.mru) <- i else t.lru <- i;
  t.mru <- i

(* Takes indexed slot [i] off the index and the recency list. *)
let drop t i =
  let b = bucket t t.vpns.(i) in
  unchain t b i (-1) t.heads.(b);
  unlink t i;
  t.valid <- t.valid - 1

(* Indexes slot [i], which holds its vpn, as the most recently used. *)
let add t i =
  let b = bucket t t.vpns.(i) in
  t.chain.(i) <- t.heads.(b);
  t.heads.(b) <- i;
  push_front t i;
  t.valid <- t.valid + 1

let touch t i =
  t.ages.(i) <- t.clock;
  if t.mru <> i then begin
    unlink t i;
    push_front t i
  end

(* Every translation that misses the filter registers probes here, so a
   lookup returns the bare PPN (or [miss]) instead of an option-wrapped
   or boxed result. *)
let lookup t ~vpn =
  t.lookups <- t.lookups + 1;
  t.clock <- t.clock + 1;
  let i = find t vpn in
  if i < 0 then miss
  else begin
    t.hits <- t.hits + 1;
    touch t i;
    t.ppns.(i)
  end

let hit_again t ~vpn ~n =
  let i = find t vpn in
  if i < 0 then invalid_arg "Tlb.hit_again: vpn not resident";
  t.lookups <- t.lookups + n;
  t.hits <- t.hits + n;
  t.clock <- t.clock + n;
  touch t i

let probe t ~vpn =
  let i = find t vpn in
  if i < 0 then None else Some t.ppns.(i)

(* The first slot of lowest age: the first invalidated slot (age 0)
   while any is, which only injection or an unmap makes. *)
let first_oldest t =
  let ages = t.ages in
  let best = ref 0 in
  for i = 1 to Array.length ages - 1 do
    if Array.unsafe_get ages i < Array.unsafe_get ages !best then best := i
  done;
  !best

let fill t ~vpn ~ppn =
  if t.entries > 0 then begin
    t.clock <- t.clock + 1;
    let i = find t vpn in
    if i >= 0 then begin
      t.ppns.(i) <- ppn;
      touch t i
    end
    else begin
      let i =
        if t.used < t.entries then begin
          t.used <- t.used + 1;
          t.used - 1
        end
        else
          (* An invalidated victim is on neither the index nor the list. *)
          let i = if t.valid < t.entries then first_oldest t else t.lru in
          if t.vpns.(i) >= 0 then drop t i;
          i
      in
      t.vpns.(i) <- vpn;
      t.ppns.(i) <- ppn;
      t.ages.(i) <- t.clock;
      add t i
    end
  end

let invalidate t ~vpn =
  let i = find t vpn in
  if i >= 0 then begin
    drop t i;
    (* The slot stays allocated but becomes the victim. *)
    t.vpns.(i) <- -1;
    t.ppns.(i) <- -1;
    t.ages.(i) <- 0
  end

let flush t =
  Array.fill t.vpns 0 t.entries (-1);
  Array.fill t.ppns 0 t.entries (-1);
  Array.fill t.ages 0 t.entries 0;
  Array.fill t.heads 0 (t.mask + 1) (-1);
  t.mru <- -1;
  t.lru <- -1;
  t.valid <- 0;
  t.used <- 0

let occupancy t = t.used

let lookups t = t.lookups
let hits t = t.hits
let misses t = t.lookups - t.hits
let hit_rate t = Gem_util.Stats.hit_rate ~hits:t.hits ~total:t.lookups

let reset_stats t =
  t.lookups <- 0;
  t.hits <- 0

(* The index and the recency list are rebuilt from the restored slots:
   valid slots enter oldest first, ties by slot, so the list's tail is
   the first slot of lowest age. *)
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
            flush t;
            Array.iteri
              (fun i s ->
                t.vpns.(i) <- s.(0);
                t.ppns.(i) <- s.(1);
                t.ages.(i) <- s.(2))
              saved;
            let order = Array.init t.entries Fun.id in
            Array.stable_sort (fun i j -> Int.compare t.ages.(i) t.ages.(j)) order;
            Array.iter (fun i -> if t.vpns.(i) >= 0 then add t i) order);
        field "used" int (fun t -> t.used) (fun t v -> t.used <- v);
        field "clock" int (fun t -> t.clock) (fun t v -> t.clock <- v);
        field "lookups" int (fun t -> t.lookups) (fun t v -> t.lookups <- v);
        field "hits" int (fun t -> t.hits) (fun t v -> t.hits <- v) ])
