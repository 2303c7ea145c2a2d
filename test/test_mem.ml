(* gem_mem: SRAM banking, set-associative cache behavior, DRAM timing,
   sparse main memory. *)

open Gem_mem

let test_sram_rw () =
  let s = Sram.create ~banks:4 ~rows_per_bank:8 ~elems_per_row:16 ~data:true in
  Alcotest.(check int) "total rows" 32 (Sram.total_rows s);
  Alcotest.(check int) "bank of row" 2 (Sram.bank_of_row s 17);
  Sram.write_row s ~row:17 (Array.init 16 (fun i -> i));
  Alcotest.(check int) "readback" 5 (Sram.read_elem s ~row:17 ~col:5);
  (* Short writes zero-pad. *)
  Sram.write_row s ~row:17 [| 9 |];
  Alcotest.(check int) "pad wrote" 9 (Sram.read_elem s ~row:17 ~col:0);
  Alcotest.(check int) "pad zeroed" 0 (Sram.read_elem s ~row:17 ~col:5);
  Alcotest.check_raises "row bounds"
    (Invalid_argument "Sram: row 32 out of range [0,32)") (fun () ->
      ignore (Sram.read_row s ~row:32))

let test_sram_accumulate () =
  let s = Sram.create ~banks:1 ~rows_per_bank:4 ~elems_per_row:4 ~data:true in
  Sram.write_row s ~row:0 [| 10; 20; 30; 40 |];
  Sram.accumulate_row s ~row:0 [| 1; 2; 3; 4 |];
  Alcotest.(check (array int)) "accumulated" [| 11; 22; 33; 44 |] (Sram.read_row s ~row:0);
  Sram.write_row s ~row:1 [| Gem_util.Fixed.int32_max; 0; 0; 0 |];
  Sram.accumulate_row s ~row:1 [| 100; 0; 0; 0 |];
  Alcotest.(check int) "saturates" Gem_util.Fixed.int32_max (Sram.read_row s ~row:1).(0)

(* A timing-only SRAM holds no values: every data access fails loudly
   instead of reading zeros, and its snapshot carries no data. *)
let test_sram_timing_only () =
  let s = Sram.create ~banks:2 ~rows_per_bank:4 ~elems_per_row:4 ~data:false in
  Alcotest.(check int) "geometry still answers" 8 (Sram.total_rows s);
  let refuses what f =
    Alcotest.check_raises what
      (Invalid_argument "Sram: data access on a timing-only SRAM") f
  in
  refuses "read" (fun () -> ignore (Sram.read_row s ~row:3));
  refuses "write" (fun () -> Sram.write_row s ~row:3 [| 1 |]);
  refuses "accumulate" (fun () -> Sram.accumulate_row s ~row:3 [| 1 |]);
  let snap = Gem_util.Snap.snapshot Sram.codec s in
  Alcotest.(check bool) "no data in the snapshot" true
    (Gem_util.Jsonx.member "data" snap = None);
  let functional = Sram.create ~banks:2 ~rows_per_bank:4 ~elems_per_row:4 ~data:true in
  match Gem_util.Snap.restore Sram.codec s (Gem_util.Snap.snapshot Sram.codec functional) with
  | () -> Alcotest.fail "a timing-only SRAM restored data"
  | exception Gem_util.Snap.Malformed _ -> ()

let test_cache_basics () =
  let c = Cache.create ~size_bytes:4096 ~ways:4 ~line_bytes:64 () in
  Alcotest.(check int) "sets" 16 (Cache.sets c);
  (match Cache.access c ~addr:0 ~write:false with
  | Cache.Miss -> ()
  | _ -> Alcotest.fail "cold miss expected");
  (match Cache.access c ~addr:32 ~write:false with
  | Cache.Hit -> ()
  | _ -> Alcotest.fail "same line should hit");
  (* Fill one set past associativity: set 0 lines are multiples of 1024. *)
  for i = 1 to 4 do
    ignore (Cache.access c ~addr:(i * 1024) ~write:false)
  done;
  (match Cache.access c ~addr:0 ~write:false with
  | Cache.Miss | Cache.Miss_writeback -> ()
  | Cache.Hit -> Alcotest.fail "LRU line should have been evicted")

let test_cache_lru_order () =
  let c = Cache.create ~size_bytes:4096 ~ways:4 ~line_bytes:64 () in
  (* Touch lines A B C D, re-touch A, add E: victim must be B. *)
  let line i = i * 1024 in
  List.iter (fun i -> ignore (Cache.access c ~addr:(line i) ~write:false)) [ 0; 1; 2; 3 ];
  ignore (Cache.access c ~addr:(line 0) ~write:false);
  ignore (Cache.access c ~addr:(line 4) ~write:false);
  Alcotest.(check bool) "A still resident" true (Cache.probe c ~addr:(line 0));
  Alcotest.(check bool) "B evicted" false (Cache.probe c ~addr:(line 1))

let test_cache_writeback () =
  let c = Cache.create ~size_bytes:4096 ~ways:4 ~line_bytes:64 () in
  ignore (Cache.access c ~addr:0 ~write:true);
  for i = 1 to 4 do
    ignore (Cache.access c ~addr:(i * 1024) ~write:false)
  done;
  Alcotest.(check int) "one writeback of the dirty victim" 1 (Cache.writebacks c)

(* An access to the line the previous access touched skips the way scan;
   that shortcut must never outlive the line: not an invalidation, not a
   restore, not an eviction. A write through it still dirties the line. *)
let test_cache_last_line () =
  let c = Cache.create ~size_bytes:4096 ~ways:4 ~line_bytes:64 () in
  let is_miss addr =
    match Cache.access c ~addr ~write:false with
    | Cache.Hit -> false
    | Cache.Miss | Cache.Miss_writeback -> true
  in
  let empty = Gem_util.Snap.snapshot Cache.codec c in
  Alcotest.(check bool) "cold" true (is_miss 0);
  Alcotest.(check bool) "same line hits" false (is_miss 8);
  Cache.invalidate_all c;
  Alcotest.(check bool) "miss after invalidate_all" true (is_miss 16);
  Gem_util.Snap.restore Cache.codec c empty;
  Alcotest.(check bool) "miss after restore" true (is_miss 24);
  ignore (Cache.access c ~addr:32 ~write:true);
  for i = 1 to 4 do
    ignore (Cache.access c ~addr:(i * 1024) ~write:false)
  done;
  Alcotest.(check int) "the write hit dirtied the line" 1 (Cache.writebacks c);
  ignore (Cache.access c ~addr:(4 * 1024) ~write:false);
  Alcotest.(check bool) "miss after eviction" true (is_miss 40);
  Alcotest.(check (list int)) "accesses, hits, misses since the restore"
    [ 8; 2; 6 ] [ Cache.accesses c; Cache.hits c; Cache.misses c ]

let qcheck_cache_occupancy =
  QCheck2.Test.make ~name:"cache occupancy never exceeds capacity, access implies resident"
    ~count:50
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 50 300))
    (fun (seed, n) ->
      let c = Cache.create ~size_bytes:2048 ~ways:2 ~line_bytes:64 () in
      let rng = Gem_util.Rng.create ~seed in
      let ok = ref true in
      for _ = 1 to n do
        let addr = Gem_util.Rng.int rng 65536 in
        let write = Gem_util.Rng.bool rng in
        ignore (Cache.access c ~addr ~write);
        if not (Cache.probe c ~addr) then ok := false;
        if Cache.resident_lines c > 32 then ok := false
      done;
      !ok)

(* The replacement rule, one step at a time: the way holding the line,
   else the first invalid way, else the least recently used (the first
   of equal ages). [Cache.access] (one pass over the set, behind a way
   hint) must agree with it on every outcome; [Cache.hit_mru ~n] must
   leave a cache as [n] accesses to its last line leave a twin, and on a
   write dirty that line even when a read brought it in. The stream also
   draws lines one hint table apart (they share a hint byte), way counts
   that are not powers of two, and restores of another cache's state,
   whose tag array sometimes holds one tag twice in a set: no access
   stream reaches such a state, but the codec accepts it, and a hint
   left over from before the restore would pick the later copy. *)
let qcheck_cache_reference =
  QCheck2.Test.make ~name:"cache: one-pass lookup and hit_mru match a reference"
    ~count:100
    QCheck2.Gen.(triple (int_range 0 100000) (int_range 50 400) (oneofl [ 3; 4; 6 ]))
    (fun (seed, steps, ways) ->
      let sets = 8 and line = 64 in
      (* one hint byte per slot, rounded down to a power of two *)
      let hint_lines =
        let rec go p = if 2 * p > sets * ways then p else go (2 * p) in
        go 1
      in
      let make () =
        Cache.create ~size_bytes:(ways * sets * line) ~ways ~line_bytes:line ()
      in
      let c = make () and twin = make () and other = make () in
      let tags = Array.make (sets * ways) (-1)
      and age = Array.make (sets * ways) 0
      and dirty = Array.make (sets * ways) false
      and clock = ref 0 in
      let reference ~addr ~write =
        incr clock;
        let ln = addr / line in
        let base = ln mod sets * ways and tag = ln / sets in
        let rec find tag w =
          if w = ways then -1 else if tags.(base + w) = tag then w else find tag (w + 1)
        in
        let w = find tag 0 in
        if w >= 0 then begin
          age.(base + w) <- !clock;
          if write then dirty.(base + w) <- true;
          Cache.Hit
        end
        else begin
          let v =
            let free = find (-1) 0 in
            if free >= 0 then free
            else begin
              let v = ref 0 in
              for w = 1 to ways - 1 do
                if age.(base + w) < age.(base + !v) then v := w
              done;
              !v
            end
          in
          let i = base + v in
          let wb = tags.(i) >= 0 && dirty.(i) in
          tags.(i) <- tag;
          age.(i) <- !clock;
          dirty.(i) <- write;
          if wb then Cache.Miss_writeback else Cache.Miss
        end
      in
      let module J = Gem_util.Jsonx in
      let snap c = Gem_util.Snap.snapshot Cache.codec c in
      let list name json = Option.get (J.to_list (Option.get (J.member name json))) in
      let ints name json = Array.of_list (List.filter_map J.to_int (list name json)) in
      let bools name json = Array.of_list (List.filter_map J.to_bool (list name json)) in
      let rng = Gem_util.Rng.create ~seed in
      let lines = sets * ways * 3 in
      (* [other]'s state after its own stream; in half the restores some
         sets get one tag in several ways *)
      let restore_other () =
        for _ = 1 to Gem_util.Rng.int rng 40 do
          ignore
            (Cache.access other ~addr:(Gem_util.Rng.int rng (line * lines))
               ~write:(Gem_util.Rng.bool rng))
        done;
        let state = snap other in
        let saved = ints "tags" state in
        if Gem_util.Rng.bool rng then
          for set = 0 to sets - 1 do
            let tag = Gem_util.Rng.int rng (lines / sets) in
            for w = 0 to ways - 1 do
              if Gem_util.Rng.bool rng then saved.((set * ways) + w) <- tag
            done
          done;
        let state =
          match state with
          | J.Obj kvs ->
              J.Obj
                (List.map
                   (fun (k, v) ->
                     if k = "tags" then (k, J.List (Array.to_list (Array.map (fun t -> J.Int t) saved)))
                     else (k, v))
                   kvs)
          | _ -> assert false
        in
        Gem_util.Snap.restore Cache.codec c state;
        Gem_util.Snap.restore Cache.codec twin state;
        Array.blit saved 0 tags 0 (Array.length tags);
        Array.blit (ints "age" state) 0 age 0 (Array.length age);
        Array.blit (bools "dirty" state) 0 dirty 0 (Array.length dirty);
        clock := Option.get (Option.bind (J.member "clock" state) J.to_int)
      in
      let ok = ref true in
      for _ = 1 to steps do
        let write = Gem_util.Rng.bool rng in
        let draw = Gem_util.Rng.int rng 40 in
        if draw = 0 then restore_other ()
        else if Cache.mru_line c >= 0 && draw < 10 then begin
          let n = Gem_util.Rng.int_in rng ~lo:1 ~hi:5 in
          let addr = (Cache.mru_line c * line) + Gem_util.Rng.int rng line in
          Cache.hit_mru c ~n ~write;
          for _ = 1 to n do
            if Cache.access twin ~addr ~write <> Cache.Hit then ok := false;
            if reference ~addr ~write <> Cache.Hit then ok := false
          done
        end
        else begin
          let ln =
            let mru = Cache.mru_line c in
            if mru >= 0 && draw < 20 then
              (* a line sharing the last line's hint byte *)
              if mru >= hint_lines && Gem_util.Rng.bool rng then mru - hint_lines
              else mru + hint_lines
            else Gem_util.Rng.int rng lines
          in
          let addr = (ln * line) + Gem_util.Rng.int rng line in
          let r = Cache.access c ~addr ~write in
          if Cache.access twin ~addr ~write <> r then ok := false;
          if reference ~addr ~write <> r then ok := false
        end
      done;
      let final = snap c in
      !ok
      && ints "tags" final = tags
      && ints "age" final = age
      && bools "dirty" final = dirty
      && J.to_string final = J.to_string (snap twin))

let test_cache_range () =
  let c = Cache.create ~size_bytes:4096 ~ways:4 ~line_bytes:64 () in
  let hits, misses, _ = Cache.access_range c ~addr:0 ~bytes:256 ~write:false in
  Alcotest.(check (pair int int)) "4 cold lines" (0, 4) (hits, misses);
  let hits, misses, _ = Cache.access_range c ~addr:32 ~bytes:64 ~write:false in
  (* 32..96 overlaps lines 0 and 1, both resident. *)
  Alcotest.(check (pair int int)) "warm range" (2, 0) (hits, misses)

let test_dram_timing () =
  let d = Dram.create ~latency:100 ~bytes_per_cycle:16 () in
  let t1 = Dram.access d ~now:0 ~bytes:64 ~write:false in
  Alcotest.(check int) "first access" 104 t1;
  (* Second access queues behind the first's occupancy (4 cycles). *)
  let t2 = Dram.access d ~now:0 ~bytes:64 ~write:false in
  Alcotest.(check int) "queued access" 108 t2;
  Alcotest.(check int) "bytes counted" 128 (Dram.bytes_read d)

let test_mainmem () =
  let m = Mainmem.create () in
  Alcotest.(check int) "untouched is zero" 0 (Mainmem.read_byte m ~addr:123456);
  Mainmem.write_i8 m ~addr:100 (-5);
  Alcotest.(check int) "i8 sign" (-5) (Mainmem.read_i8 m ~addr:100);
  Mainmem.write_i32 m ~addr:200 (-123456789);
  Alcotest.(check int) "i32 roundtrip" (-123456789) (Mainmem.read_i32 m ~addr:200);
  (* Cross-page array roundtrip. *)
  let data = Array.init 100 (fun i -> i - 50) in
  Mainmem.write_i8_array m ~addr:4090 data;
  Alcotest.(check (array int)) "cross-page array" data
    (Mainmem.read_i8_array m ~addr:4090 ~n:100);
  Alcotest.(check bool) "pages sparse" true (Mainmem.touched_pages m < 10)

let qcheck_mainmem_i32 =
  QCheck2.Test.make ~name:"mainmem i32 roundtrip (full range)" ~count:200
    QCheck2.Gen.(pair (int_range 0 100000) (int_range Gem_util.Fixed.int32_min Gem_util.Fixed.int32_max))
    (fun (addr, v) ->
      let m = Mainmem.create () in
      Mainmem.write_i32 m ~addr v;
      Mainmem.read_i32 m ~addr = v)

let suite =
  [
    Alcotest.test_case "sram read/write" `Quick test_sram_rw;
    Alcotest.test_case "sram accumulate" `Quick test_sram_accumulate;
    Alcotest.test_case "timing-only sram holds no data" `Quick test_sram_timing_only;
    Alcotest.test_case "cache basics" `Quick test_cache_basics;
    Alcotest.test_case "cache LRU order" `Quick test_cache_lru_order;
    Alcotest.test_case "cache writeback" `Quick test_cache_writeback;
    Alcotest.test_case "cache last-line shortcut" `Quick test_cache_last_line;
    Alcotest.test_case "cache range access" `Quick test_cache_range;
    QCheck_alcotest.to_alcotest qcheck_cache_reference;
    Alcotest.test_case "dram timing" `Quick test_dram_timing;
    Alcotest.test_case "main memory" `Quick test_mainmem;
    QCheck_alcotest.to_alcotest qcheck_cache_occupancy;
    QCheck_alcotest.to_alcotest qcheck_mainmem_i32;
  ]
