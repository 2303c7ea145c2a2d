open Gem_util

(* Struct of arrays over the [sets * ways] slots; slot [set * ways + w]
   is way [w] of [set]. Each set has a line index and a recency list
   that make lookup and replacement O(1), linked by way bytes since no
   link leaves its set ([none] ends a chain, so [ways <= 255]):
   - bucket [b] of the set's [2^bucket_bits] starts at way [heads.(b)],
     and [chain.(slot)] is the next way. Every valid way is on its tag's
     chain, and ways holding one tag (only a restore makes them) are
     chained lowest first;
   - every way, valid or not, is on a circle linked by [newer]/[older]:
     [newest.(set)] is its head, and [newer] of the head is the tail,
     the victim.
   A set's [newest] is [none] until its first access writes its links
   (the first such access allocates the link bytes), so creating or
   invalidating a cache writes one link byte per set. *)
type t = {
  size_bytes : int;
  ways : int;
  line_bytes : int;
  sets : int;
  set_shift : int;
  set_mask : int;
  tag_shift : int; (* set_shift + log2 sets: addr lsr tag_shift = tag *)
  tags : int array; (* set*ways + way; -1 = invalid *)
  dirty : Bytes.t; (* one byte per slot, '\001' = dirty: 1/8 of a bool array *)
  age : int array; (* larger = more recently used *)
  mutable clock : int;
  (* The line ([addr lsr set_shift]) the last access touched, and its
     slot: back-to-back accesses to one line (DMA rows inside a line) hit
     it without a lookup. It stays resident, since only a later access
     can evict it, and it heads its set's list. *)
  mutable mru_line : int;
  mutable mru_slot : int;
  bucket_bits : int;
  mutable heads : Bytes.t; (* [Bytes.empty] until a set opens *)
  mutable chain : Bytes.t;
  mutable newer : Bytes.t;
  mutable older : Bytes.t;
  newest : Bytes.t;
  (* A restore left some set's newest way holding a lower way's tag,
     which a lookup of that tag must find instead. *)
  mutable shadowed_head : bool;
  mutable accesses : int;
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
  mutable read_misses : int;
  mutable write_misses : int;
}

(* Constant constructors: the L2 sits on the DMA path, so [access] runs
   millions of times per inference and must not allocate a [Miss] record
   per call. *)
type result = Hit | Miss | Miss_writeback

let clean_flag = '\000'
let dirty_flag = '\001'
let none = 255

let[@inline] get b i = Char.code (Bytes.unsafe_get b i)
let[@inline] put b i w = Bytes.unsafe_set b i (Char.unsafe_chr w)

let create ?engine ?(name = "cache") ~size_bytes ~ways ~line_bytes () =
  if size_bytes <= 0 || ways <= 0 || line_bytes <= 0 then
    invalid_arg "Cache.create: non-positive parameter";
  if ways > 255 then invalid_arg "Cache.create: more than 255 ways";
  if not (Mathx.is_pow2 line_bytes) then
    invalid_arg "Cache.create: line size must be a power of two";
  if size_bytes mod (ways * line_bytes) <> 0 then
    invalid_arg "Cache.create: size not divisible by ways*line";
  let sets = size_bytes / (ways * line_bytes) in
  if not (Mathx.is_pow2 sets) then
    invalid_arg "Cache.create: set count must be a power of two";
  (* The largest power of two at most [ways]: up to two lines a bucket. *)
  let bucket_bits = Mathx.log2_ceil (ways + 1) - 1 in
  let t =
    {
      size_bytes;
      ways;
      line_bytes;
      sets;
      set_shift = Mathx.log2_exact line_bytes;
      set_mask = sets - 1;
      tag_shift = Mathx.log2_exact line_bytes + Mathx.log2_exact sets;
      tags = Array.make (sets * ways) (-1);
      dirty = Bytes.make (sets * ways) clean_flag;
      age = Array.make (sets * ways) 0;
      clock = 0;
      mru_line = -1;
      mru_slot = 0;
      bucket_bits;
      heads = Bytes.empty;
      chain = Bytes.empty;
      newer = Bytes.empty;
      older = Bytes.empty;
      newest = Bytes.make sets (Char.chr none);
      shadowed_head = false;
      accesses = 0;
      hits = 0;
      misses = 0;
      writebacks = 0;
      read_misses = 0;
      write_misses = 0;
    }
  in
  (match engine with
  | None -> ()
  | Some e ->
      (* The cache's timing is charged by whoever owns its port; it
         registers as a metrics probe so hit behavior shows up in the
         engine's profile next to the resources it drives. *)
      Gem_sim.Engine.register_probe e ~kind:Gem_sim.Engine.Cache ~name
        ~sample:(fun () ->
          {
            Gem_sim.Engine.p_requests = t.accesses;
            p_busy = 0;
            p_wait = 0;
            p_note =
              Printf.sprintf "%.1f%% hit, %d writebacks"
                (100. *. Stats.hit_rate ~hits:t.hits ~total:t.accesses)
                t.writebacks;
          }));
  t

let sets t = t.sets

(* The bucket of [tag] in [set]. A Fibonacci hash spreads tags that
   differ by a power of two over the set's buckets. *)
let[@inline] bucket t set tag =
  (set lsl t.bucket_bits)
  lor (((tag * 0x9E3779B97F4A7C1) lsr 20) land ((1 lsl t.bucket_bits) - 1))

(* Empties the index of [set] and links its ways into a circle in way
   order, way 0 the tail: the order in which an empty set fills. Returns
   the newest way. *)
let open_set t set base =
  let w = t.ways in
  if Bytes.length t.chain = 0 then begin
    t.heads <- Bytes.create (t.sets lsl t.bucket_bits);
    t.chain <- Bytes.create (t.sets * w);
    t.newer <- Bytes.create (t.sets * w);
    t.older <- Bytes.create (t.sets * w)
  end;
  Bytes.unsafe_fill t.heads (set lsl t.bucket_bits) (1 lsl t.bucket_bits)
    (Char.unsafe_chr none);
  for i = 0 to w - 1 do
    put t.newer (base + i) ((i + 1) mod w);
    put t.older (base + i) ((i + w - 1) mod w)
  done;
  put t.newest set (w - 1);
  w - 1

(* The slot holding [tag] on the chain from way [w] of the set at [base],
   or -1. The helpers are top-level functions over ints, so an access
   builds no closure, tuple or option. *)
let rec find_from t base tag w =
  if w = none then -1
  else if Array.unsafe_get t.tags (base + w) = tag then base + w
  else find_from t base tag (get t.chain (base + w))

(* Puts way [w] of the set at [base] first on chain [b]. *)
let index t base b w =
  put t.chain (base + w) (get t.heads b);
  put t.heads b w

let rec unchain_after t base w prev =
  let next = get t.chain (base + prev) in
  if next = w then put t.chain (base + prev) (get t.chain (base + w))
  else unchain_after t base w next

(* Takes way [w] of the set at [base] off chain [b]. *)
let unindex t base b w =
  let first = get t.heads b in
  if first = w then put t.heads b (get t.chain (base + w))
  else unchain_after t base w first

(* Makes way [w] of [set] (at [base], newest way [head]) the newest. The
   tail only moves the head one step round the circle; any other way
   leaves its place and goes between the tail and the head. *)
let[@inline] touch t set base head w =
  if w <> head then begin
    let tail = get t.newer (base + head) in
    if w <> tail then begin
      let o = get t.older (base + w) and n = get t.newer (base + w) in
      put t.newer (base + o) n;
      put t.older (base + n) o;
      put t.older (base + w) head;
      put t.newer (base + w) tail;
      put t.newer (base + head) w;
      put t.older (base + tail) w
    end;
    put t.newest set w
  end

let[@inline] hit t idx ~write =
  t.hits <- t.hits + 1;
  Array.unsafe_set t.age idx t.clock;
  if write then Bytes.unsafe_set t.dirty idx dirty_flag;
  t.mru_slot <- idx;
  Hit

(* Fills way [w] of [set] (at [base]), the tail of its list, with [tag]
   on chain [b]. *)
let fill t set base b w tag ~write =
  let idx = base + w in
  t.misses <- t.misses + 1;
  if write then t.write_misses <- t.write_misses + 1
  else t.read_misses <- t.read_misses + 1;
  let old = Array.unsafe_get t.tags idx in
  let writeback = old <> -1 && Bytes.unsafe_get t.dirty idx = dirty_flag in
  if writeback then t.writebacks <- t.writebacks + 1;
  if old <> -1 then unindex t base (bucket t set old) w;
  Array.unsafe_set t.tags idx tag;
  index t base b w;
  Bytes.unsafe_set t.dirty idx (if write then dirty_flag else clean_flag);
  Array.unsafe_set t.age idx t.clock;
  put t.newest set w;
  t.mru_slot <- idx;
  if writeback then Miss_writeback else Miss

(* A hit on the set's newest way (most non-MRU hits) costs one tag
   compare, like the MRU line; any other hit finds its way in the index
   and touches it. A miss fills the tail: the lowest invalid way while
   any is left (invalid ways sit behind every valid one, in way order),
   else the least recently used. *)
let access t ~addr ~write =
  if addr < 0 then invalid_arg "Cache.access: negative address";
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  let line = addr lsr t.set_shift in
  if line = t.mru_line then hit t t.mru_slot ~write
  else begin
    let set = line land t.set_mask and tag = addr lsr t.tag_shift in
    let base = set * t.ways and head = get t.newest set in
    let head = if head = none then open_set t set base else head in
    t.mru_line <- line;
    if Array.unsafe_get t.tags (base + head) = tag && not t.shadowed_head then
      hit t (base + head) ~write
    else
      let b = bucket t set tag in
      let idx = find_from t base tag (get t.heads b) in
      if idx >= 0 then begin
        touch t set base head (idx - base);
        hit t idx ~write
      end
      else fill t set base b (get t.newer (base + head)) tag ~write
  end

let mru_line t = t.mru_line

let hit_mru t ~n ~write =
  if t.mru_line < 0 || n < 1 then
    invalid_arg "Cache.hit_mru: no last-accessed line, or n < 1";
  t.accesses <- t.accesses + n;
  t.hits <- t.hits + n;
  t.clock <- t.clock + n;
  t.age.(t.mru_slot) <- t.clock;
  if write then Bytes.set t.dirty t.mru_slot dirty_flag

let access_range t ~addr ~bytes ~write =
  if bytes < 0 then invalid_arg "Cache.access_range: negative size";
  let hits = ref 0 and misses = ref 0 and wbs = ref 0 in
  if bytes > 0 then begin
    let first = addr lsr t.set_shift in
    let last = (addr + bytes - 1) lsr t.set_shift in
    for line = first to last do
      match access t ~addr:(line lsl t.set_shift) ~write with
      | Hit -> incr hits
      | Miss -> incr misses
      | Miss_writeback ->
          incr misses;
          incr wbs
    done
  end;
  (!hits, !misses, !wbs)

let probe t ~addr =
  let set = (addr lsr t.set_shift) land t.set_mask and tag = addr lsr t.tag_shift in
  get t.newest set <> none
  && find_from t (set * t.ways) tag (get t.heads (bucket t set tag)) >= 0

let resident_lines t =
  Array.fold_left (fun acc tag -> if tag >= 0 then acc + 1 else acc) 0 t.tags

let invalidate_all t =
  t.mru_line <- -1;
  t.shadowed_head <- false;
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) clean_flag;
  Array.fill t.age 0 (Array.length t.age) 0;
  Bytes.fill t.newest 0 t.sets (Char.chr none)

(* Way [i] of the set at [base] is a victim before way [j]. *)
let evicted_before t base i j =
  t.tags.(base + j) <> -1
  && (t.tags.(base + i) = -1 || t.age.(base + i) < t.age.(base + j))

(* The index and the lists, from restored tags and ages. Ways are indexed
   highest first, so ways holding one tag chain lowest first. A list runs
   from the tail in the order the set picks victims: invalid ways, then
   valid ways by age, ties by way (a stable insertion sort). A valid way
   newer than the clock is refused, as a later access would not be the
   newest by age. *)
let rebuild t =
  let w = t.ways in
  let order = Array.make w 0 in
  t.shadowed_head <- false;
  for s = 0 to t.sets - 1 do
    let base = s * w in
    ignore (open_set t s base);
    for i = w - 1 downto 0 do
      let tag = t.tags.(base + i) in
      if tag <> -1 then begin
        if t.age.(base + i) > t.clock then
          Snap.fail "way %d of set %d was used at %d, after the clock (%d)" i s
            t.age.(base + i) t.clock;
        index t base (bucket t s tag) i
      end
    done;
    for k = 0 to w - 1 do
      let i = ref k in
      while !i > 0 && evicted_before t base k order.(!i - 1) do
        order.(!i) <- order.(!i - 1);
        decr i
      done;
      order.(!i) <- k
    done;
    for k = 0 to w - 1 do
      put t.newer (base + order.(k)) order.((k + 1) mod w);
      put t.older (base + order.(k)) order.((k + w - 1) mod w)
    done;
    let head = order.(w - 1) in
    let tag = t.tags.(base + head) in
    put t.newest s (if tag = -1 then none else head);
    if tag <> -1 && find_from t base tag (get t.heads (bucket t s tag)) <> base + head then
      t.shadowed_head <- true
  done

let accesses t = t.accesses
let hits t = t.hits
let misses t = t.misses
let writebacks t = t.writebacks

let miss_rate t = Stats.hit_rate ~hits:t.misses ~total:t.accesses

let codec =
  Snap.(
    obj
      [ geometry "size_bytes" int (fun t -> t.size_bytes);
        geometry "ways" int (fun t -> t.ways);
        geometry "line_bytes" int (fun t -> t.line_bytes);
        sub "tags" int_array (fun t -> t.tags);
        field "dirty" (array bool)
          (fun t -> Array.init (Bytes.length t.dirty) (fun i -> Bytes.get t.dirty i = dirty_flag))
          (fun t flags ->
            let n = Bytes.length t.dirty in
            if Array.length flags <> n then
              fail "expected %d elements, got %d" n (Array.length flags);
            Array.iteri (fun i d -> Bytes.set t.dirty i (if d then dirty_flag else clean_flag)) flags);
        sub "age" int_array (fun t -> t.age);
        (* The tags just changed under the last-access slot, the index
           and the lists: forget the one, rebuild the others. *)
        field "clock" int (fun t -> t.clock) (fun t v ->
            t.clock <- v;
            t.mru_line <- -1;
            rebuild t);
        field "accesses" int (fun t -> t.accesses) (fun t v -> t.accesses <- v);
        field "hits" int (fun t -> t.hits) (fun t v -> t.hits <- v);
        field "misses" int (fun t -> t.misses) (fun t v -> t.misses <- v);
        field "writebacks" int (fun t -> t.writebacks) (fun t v -> t.writebacks <- v);
        field "read_misses" int (fun t -> t.read_misses) (fun t v -> t.read_misses <- v);
        field "write_misses" int (fun t -> t.write_misses) (fun t v -> t.write_misses <- v) ])
