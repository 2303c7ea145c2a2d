open Gem_util

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
     it without a way scan. It stays resident, since only a later access
     can evict it. *)
  mutable mru_line : int;
  mutable mru_slot : int;
  (* Way hints, one byte per slot: byte [line land hint_mask] holds the
     way of the last access to a line with that index (its hit, or the
     victim it filled). A hint is only a guess, confirmed by one tag
     compare in the line's own set; it is not part of the snapshot. *)
  hint : Bytes.t;
  hint_mask : int;
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

let hit_rate t = Stats.hit_rate ~hits:t.hits ~total:t.accesses

let create ?engine ?(name = "cache") ~size_bytes ~ways ~line_bytes () =
  if size_bytes <= 0 || ways <= 0 || line_bytes <= 0 then
    invalid_arg "Cache.create: non-positive parameter";
  if not (Mathx.is_pow2 line_bytes) then
    invalid_arg "Cache.create: line size must be a power of two";
  if size_bytes mod (ways * line_bytes) <> 0 then
    invalid_arg "Cache.create: size not divisible by ways*line";
  let sets = size_bytes / (ways * line_bytes) in
  if not (Mathx.is_pow2 sets) then
    invalid_arg "Cache.create: set count must be a power of two";
  (* The largest power of two at most [sets * ways]: never more than one
     byte per slot, and a multiple of [sets], so lines sharing a hint
     share a set. *)
  let hint_lines = 1 lsl (Mathx.log2_ceil ((sets * ways) + 1) - 1) in
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
      hint = Bytes.make hint_lines '\000';
      hint_mask = hint_lines - 1;
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
                (100. *. hit_rate t) t.writebacks;
          }));
  t

let size_bytes t = t.size_bytes
let ways t = t.ways
let line_bytes t = t.line_bytes
let sets t = t.sets

let set_of t addr = (addr lsr t.set_shift) land t.set_mask
let tag_of t addr = addr lsr t.tag_shift

(* The way holding [tag] in the set starting at [base], or -1. The lookup
   helpers are top-level recursive functions over ints so an access
   builds no closure, tuple or option: [access] runs once per L2 line of
   every DMA burst. *)
let rec find_way t base tag w =
  if w >= t.ways then -1
  else if t.tags.(base + w) = tag then w
  else find_way t base tag (w + 1)

(* One pass over the set at [base] for a non-MRU access: the slot
   holding [tag] if any, else [-1 - victim] with the victim the first
   invalid way, or the least recently used (the first of equal ages)
   when every way is valid. [free] is the first invalid way seen (-1
   while none), [lru]/[lru_age] the oldest valid one. A valid tag is
   never -1 (addresses are non-negative), so invalid ways never match. *)
let rec scan_set t base tag w free lru lru_age =
  if w >= t.ways then -1 - (base + if free >= 0 then free else lru)
  else
    let slot = base + w in
    let tg = Array.unsafe_get t.tags slot in
    if tg = tag then slot
    else if tg = -1 then
      scan_set t base tag (w + 1) (if free >= 0 then free else w) lru lru_age
    else
      let age = Array.unsafe_get t.age slot in
      if age < lru_age then scan_set t base tag (w + 1) free w age
      else scan_set t base tag (w + 1) free lru lru_age

(* A hinted way is always inside the set: it is the reset value 0 or a
   way this cache chose (stored modulo 256, so below [ways]). A hint that
   passes the tag compare names the slot [scan_set] would return. Either
   it is way 0, the first the scan tests, or since the last reset the
   byte was written by the scan that found the tag in that slot or put it
   there: another line's scan would have rewritten it, and no earlier way
   can gain the tag while the line is resident. A wrong hint falls through
   to the scan, which rewrites it; so the scan runs for misses and for
   hits whose index another line used last. *)
let access t ~addr ~write =
  if addr < 0 then invalid_arg "Cache.access: negative address";
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  let line = addr lsr t.set_shift in
  let idx =
    if line = t.mru_line then t.mru_slot
    else
      let base = set_of t addr * t.ways and tag = tag_of t addr in
      let h = line land t.hint_mask in
      let hinted = base + Char.code (Bytes.unsafe_get t.hint h) in
      if Array.unsafe_get t.tags hinted = tag then hinted
      else
        let idx = scan_set t base tag 0 (-1) 0 max_int in
        let slot = if idx >= 0 then idx else -1 - idx in
        Bytes.unsafe_set t.hint h (Char.unsafe_chr ((slot - base) land 255));
        idx
  in
  if idx >= 0 then begin
    t.hits <- t.hits + 1;
    t.age.(idx) <- t.clock;
    if write then Bytes.set t.dirty idx dirty_flag;
    t.mru_line <- line;
    t.mru_slot <- idx;
    Hit
  end
  else begin
    let idx = -1 - idx in
    t.misses <- t.misses + 1;
    if write then t.write_misses <- t.write_misses + 1
    else t.read_misses <- t.read_misses + 1;
    let writeback = t.tags.(idx) <> -1 && Bytes.get t.dirty idx = dirty_flag in
    if writeback then t.writebacks <- t.writebacks + 1;
    t.tags.(idx) <- tag_of t addr;
    Bytes.set t.dirty idx (if write then dirty_flag else clean_flag);
    t.age.(idx) <- t.clock;
    t.mru_line <- line;
    t.mru_slot <- idx;
    if writeback then Miss_writeback else Miss
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

let probe t ~addr = find_way t (set_of t addr * t.ways) (tag_of t addr) 0 >= 0

let resident_lines t =
  Array.fold_left (fun acc tag -> if tag >= 0 then acc + 1 else acc) 0 t.tags

let forget_last t =
  t.mru_line <- -1;
  Bytes.fill t.hint 0 (Bytes.length t.hint) '\000'

let invalidate_all t =
  forget_last t;
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) clean_flag;
  Array.fill t.age 0 (Array.length t.age) 0

let accesses t = t.accesses
let hits t = t.hits
let misses t = t.misses
let writebacks t = t.writebacks
let read_misses t = t.read_misses
let write_misses t = t.write_misses

let miss_rate t = Stats.hit_rate ~hits:t.misses ~total:t.accesses

let reset_stats t =
  t.accesses <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.writebacks <- 0;
  t.read_misses <- 0;
  t.write_misses <- 0

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
        (* The tags just changed under the last-access slot and the way
           hints: forget them. *)
        field "clock" int (fun t -> t.clock) (fun t v ->
            t.clock <- v;
            forget_last t);
        field "accesses" int (fun t -> t.accesses) (fun t v -> t.accesses <- v);
        field "hits" int (fun t -> t.hits) (fun t v -> t.hits <- v);
        field "misses" int (fun t -> t.misses) (fun t v -> t.misses <- v);
        field "writebacks" int (fun t -> t.writebacks) (fun t v -> t.writebacks <- v);
        field "read_misses" int (fun t -> t.read_misses) (fun t v -> t.read_misses <- v);
        field "write_misses" int (fun t -> t.write_misses) (fun t v -> t.write_misses <- v) ])
