(* gem_vm: page tables, hardware walks, TLBs, and the two-level hierarchy
   with filter registers. *)

open Gem_vm

let mk_pt () = Page_table.create ~node_region_base:0x1000_0000 ()

let test_page_table_map () =
  let pt = mk_pt () in
  Page_table.map pt ~vpn:5 ~ppn:100;
  Alcotest.(check (option int)) "translate" (Some ((100 * 4096) + 7))
    (Page_table.translate pt ~vaddr:((5 * 4096) + 7));
  Alcotest.(check (option int)) "unmapped" None (Page_table.translate pt ~vaddr:0xdead000);
  Alcotest.(check int) "mapped pages" 1 (Page_table.mapped_pages pt);
  (* Remap doesn't double count. *)
  Page_table.map pt ~vpn:5 ~ppn:200;
  Alcotest.(check int) "remap" 1 (Page_table.mapped_pages pt)

let test_page_table_walk_addrs () =
  let pt = mk_pt () in
  Page_table.map pt ~vpn:0x12345 ~ppn:42;
  let addrs, ppn = Page_table.walk pt ~vpn:0x12345 in
  Alcotest.(check (option int)) "walk result" (Some 42) ppn;
  Alcotest.(check int) "three levels" 3 (List.length addrs);
  List.iter
    (fun a -> Alcotest.(check bool) "PTE in node region" true (a >= 0x1000_0000))
    addrs;
  (* A walk of an unmapped VPN stops early. *)
  let addrs', ppn' = Page_table.walk pt ~vpn:0x99999 in
  Alcotest.(check (option int)) "fault" None ppn';
  Alcotest.(check bool) "partial walk" true (List.length addrs' <= 3)

let qcheck_map_range =
  QCheck2.Test.make ~name:"map_range translates linearly" ~count:50
    QCheck2.Gen.(pair (int_range 1 64) (int_range 0 1000))
    (fun (pages, off) ->
      let pt = mk_pt () in
      let vaddr = 0x10000 and paddr = 0x200000 in
      Page_table.map_range pt ~vaddr ~bytes:(pages * 4096) ~paddr;
      let probe = vaddr + (off mod (pages * 4096)) in
      Page_table.translate pt ~vaddr:probe = Some (paddr + (probe - vaddr)))

let test_tlb_lru () =
  let tlb = Tlb.create ~entries:2 in
  Tlb.fill tlb ~vpn:1 ~ppn:10;
  Tlb.fill tlb ~vpn:2 ~ppn:20;
  ignore (Tlb.lookup tlb ~vpn:1);
  Tlb.fill tlb ~vpn:3 ~ppn:30;
  (* vpn 2 was LRU. *)
  Alcotest.(check bool) "1 kept" true (Tlb.probe tlb ~vpn:1 <> None);
  Alcotest.(check bool) "2 evicted" true (Tlb.probe tlb ~vpn:2 = None);
  Alcotest.(check bool) "3 present" true (Tlb.probe tlb ~vpn:3 <> None)

let test_tlb_zero_entries () =
  let tlb = Tlb.create ~entries:0 in
  Tlb.fill tlb ~vpn:1 ~ppn:10;
  Alcotest.(check int) "0-entry TLB must always miss" Tlb.miss
    (Tlb.lookup tlb ~vpn:1);
  Alcotest.(check int) "stats" 1 (Tlb.misses tlb)

(* The age-scan TLB the recency list must equal: slot lookup by a linear
   scan, eviction into the first slot of lowest age (an invalidated slot,
   age 0, first), and its state in the layout of [Tlb.codec]. *)
module Ref_tlb = struct
  type t = {
    vpns : int array;
    ppns : int array;
    ages : int array;
    mutable used : int;
    mutable clock : int;
    mutable lookups : int;
    mutable hits : int;
  }

  let create n =
    { vpns = Array.make n (-1); ppns = Array.make n (-1); ages = Array.make n 0;
      used = 0; clock = 0; lookups = 0; hits = 0 }

  let find m vpn =
    let r = ref (-1) in
    Array.iteri (fun i v -> if v = vpn && !r < 0 then r := i) m.vpns;
    !r

  let lookup m vpn =
    m.lookups <- m.lookups + 1;
    m.clock <- m.clock + 1;
    match find m vpn with
    | -1 -> Tlb.miss
    | i ->
        m.hits <- m.hits + 1;
        m.ages.(i) <- m.clock;
        m.ppns.(i)

  let hit_again m vpn n =
    m.lookups <- m.lookups + n;
    m.hits <- m.hits + n;
    m.clock <- m.clock + n;
    m.ages.(find m vpn) <- m.clock

  let fill m vpn ppn =
    let n = Array.length m.vpns in
    if n > 0 then begin
      m.clock <- m.clock + 1;
      let i =
        match find m vpn with
        | -1 when m.used < n ->
            m.used <- m.used + 1;
            m.used - 1
        | -1 ->
            let best = ref 0 in
            Array.iteri (fun i a -> if a < m.ages.(!best) then best := i) m.ages;
            !best
        | i -> i
      in
      m.vpns.(i) <- vpn;
      m.ppns.(i) <- ppn;
      m.ages.(i) <- m.clock
    end

  let invalidate m vpn =
    match find m vpn with
    | -1 -> ()
    | i ->
        m.vpns.(i) <- -1;
        m.ppns.(i) <- -1;
        m.ages.(i) <- 0

  let flush m =
    Array.fill m.vpns 0 (Array.length m.vpns) (-1);
    Array.fill m.ppns 0 (Array.length m.vpns) (-1);
    Array.fill m.ages 0 (Array.length m.vpns) 0;
    m.used <- 0

  let json m =
    let open Gem_util.Jsonx in
    Obj
      [ ("entries", Int (Array.length m.vpns));
        ( "slots",
          List
            (List.init (Array.length m.vpns) (fun i ->
                 List [ Int m.vpns.(i); Int m.ppns.(i); Int m.ages.(i) ])) );
        ("used", Int m.used); ("clock", Int m.clock);
        ("lookups", Int m.lookups); ("hits", Int m.hits) ]
end

(* One seeded stream of lookups, repeat hits, fills, invalidations and
   the odd flush over 2 x entries + 4 vpns, so a full TLB evicts, on the
   TLB and the reference alike; halfway the TLB is snapshotted and the
   stream goes on in a fresh TLB restored from it. Every lookup's result
   must agree, and every fourth operation and at the end the slots,
   ages, clock, hits and lookups (so every victim, which stays in its
   slot until it is refilled). *)
let tlb_matches_reference ~entries seed =
  let rng = Gem_util.Rng.create ~seed in
  let tlb = ref (Tlb.create ~entries) and m = Ref_tlb.create entries in
  let steps = 400 + (4 * entries) in
  let ok = ref true in
  for step = 1 to steps do
    if step = steps / 2 then begin
      let fresh = Tlb.create ~entries in
      Gem_util.Snap.restore Tlb.codec fresh
        (Gem_util.Snap.snapshot Tlb.codec !tlb);
      tlb := fresh
    end;
    let vpn = Gem_util.Rng.int rng ((2 * entries) + 4) in
    let resident = Ref_tlb.find m vpn >= 0 in
    (match Gem_util.Rng.int rng 50 with
    | 0 ->
        Tlb.flush !tlb;
        Ref_tlb.flush m
    | k when k < 17 ->
        if Tlb.lookup !tlb ~vpn <> Ref_tlb.lookup m vpn then ok := false
    | k when k < 22 && resident ->
        let n = 1 + Gem_util.Rng.int rng 5 in
        Tlb.hit_again !tlb ~vpn ~n;
        Ref_tlb.hit_again m vpn n
    | k when k < 42 ->
        Tlb.fill !tlb ~vpn ~ppn:(step + 1000);
        Ref_tlb.fill m vpn (step + 1000)
    | _ ->
        Tlb.invalidate !tlb ~vpn;
        Ref_tlb.invalidate m vpn);
    if
      (step mod 4 = 0 || step = steps)
      && Gem_util.Snap.snapshot Tlb.codec !tlb <> Ref_tlb.json m
    then ok := false
  done;
  !ok

let qcheck_tlb_reference =
  QCheck2.Test.make ~name:"recency-list TLB equals the age-scan reference"
    ~count:6 (QCheck2.Gen.int_bound 1_000_000) (fun seed ->
      List.for_all
        (fun entries -> tlb_matches_reference ~entries seed)
        [ 1; 16; 512 ])

let test_ptw_timing_and_cache () =
  let pt = mk_pt () in
  Page_table.map_range pt ~vaddr:0 ~bytes:(1 lsl 21) ~paddr:0x40_0000;
  let ptw =
    Ptw.create ~page_table:pt ~pte_cache_entries:16
      ~mem_read:(fun ~now ~paddr:_ ~bytes:_ -> now + 20)
      ()
  in
  let _, t1 = Ptw.walk ptw ~now:0 ~vpn:0 in
  Alcotest.(check int) "cold walk = 3 reads" 60 t1;
  let _, t2 = Ptw.walk ptw ~now:100 ~vpn:1 in
  (* Upper levels cached: only the leaf PTE read remains. *)
  Alcotest.(check int) "warm walk = 1 read" 120 t2;
  Alcotest.(check bool) "cache hits counted" true (Ptw.pte_cache_hits ptw >= 2);
  Alcotest.check_raises "page fault" (Ptw.Page_fault 0x777777) (fun () ->
      ignore (Ptw.walk ptw ~now:0 ~vpn:0x777777))

let mk_hierarchy ?(priv = 4) ?(shared = 0) ?(filters = true) () =
  let pt = mk_pt () in
  Page_table.map_range pt ~vaddr:0 ~bytes:(1 lsl 22) ~paddr:0x40_0000;
  let ptw =
    Ptw.create ~page_table:pt ~mem_read:(fun ~now ~paddr:_ ~bytes:_ -> now + 20) ()
  in
  Hierarchy.create
    {
      Hierarchy.private_entries = priv;
      shared_entries = shared;
      filter_registers = filters;
      private_hit_latency = 2;
      shared_hit_latency = 8;
    }
    ~ptw

let test_hierarchy_levels () =
  let h = mk_hierarchy ~filters:true () in
  let o1 = Hierarchy.translate h ~now:0 ~vaddr:0x1000 ~write:false in
  Alcotest.(check bool) "first is walk" true (o1.Hierarchy.level = Hierarchy.Walk);
  let o2 = Hierarchy.translate h ~now:100 ~vaddr:0x1008 ~write:false in
  Alcotest.(check bool) "same page filters" true (o2.Hierarchy.level = Hierarchy.Filter);
  Alcotest.(check int) "filter costs zero" 100 o2.Hierarchy.finish;
  (* A write to the same page does NOT hit the read filter. *)
  let o3 = Hierarchy.translate h ~now:200 ~vaddr:0x1010 ~write:true in
  Alcotest.(check bool) "write misses read filter" true
    (o3.Hierarchy.level = Hierarchy.Private);
  Alcotest.(check int) "private hit latency" 202 o3.Hierarchy.finish;
  (* Correct physical addresses throughout. *)
  Alcotest.(check int) "paddr" (0x40_0000 + 0x1008) o2.Hierarchy.paddr

let test_hierarchy_shared_level () =
  let h = mk_hierarchy ~priv:1 ~shared:64 ~filters:false () in
  (* Touch pages 0 and 1 so page 0 falls out of the 1-entry private TLB
     but stays in the shared TLB. *)
  ignore (Hierarchy.translate h ~now:0 ~vaddr:0x0000 ~write:false);
  ignore (Hierarchy.translate h ~now:100 ~vaddr:0x1000 ~write:false);
  let o = Hierarchy.translate h ~now:200 ~vaddr:0x0008 ~write:false in
  Alcotest.(check bool) "shared hit" true (o.Hierarchy.level = Hierarchy.Shared);
  Alcotest.(check int) "shared latency" 210 o.Hierarchy.finish

let test_hierarchy_flush () =
  let h = mk_hierarchy () in
  ignore (Hierarchy.translate h ~now:0 ~vaddr:0x1000 ~write:false);
  Hierarchy.flush h;
  let o = Hierarchy.translate h ~now:100 ~vaddr:0x1000 ~write:false in
  Alcotest.(check bool) "walk after flush" true (o.Hierarchy.level = Hierarchy.Walk)

let qcheck_hierarchy_matches_page_table =
  QCheck2.Test.make ~name:"hierarchy translation == software translation" ~count:100
    QCheck2.Gen.(pair (int_range 0 10000) (int_range 0 ((1 lsl 22) - 1)))
    (fun (seed, _) ->
      let h = mk_hierarchy ~priv:4 ~shared:16 () in
      let rng = Gem_util.Rng.create ~seed in
      let ok = ref true in
      for i = 0 to 50 do
        let vaddr = Gem_util.Rng.int rng (1 lsl 22) in
        let o = Hierarchy.translate h ~now:(i * 10) ~vaddr ~write:(Gem_util.Rng.bool rng) in
        if o.Hierarchy.paddr <> 0x40_0000 + vaddr then ok := false
      done;
      !ok)

let test_locality_stats () =
  let h = mk_hierarchy () in
  (* 3 reads on one page, then one on another: 2/3 same-page transitions. *)
  ignore (Hierarchy.translate h ~now:0 ~vaddr:0x1000 ~write:false);
  ignore (Hierarchy.translate h ~now:1 ~vaddr:0x1004 ~write:false);
  ignore (Hierarchy.translate h ~now:2 ~vaddr:0x1008 ~write:false);
  ignore (Hierarchy.translate h ~now:3 ~vaddr:0x2000 ~write:false);
  Alcotest.(check (float 1e-9)) "same-page reads" 0.5
    (Hierarchy.same_page_fraction_reads h)

let suite =
  [
    Alcotest.test_case "page table map/translate" `Quick test_page_table_map;
    Alcotest.test_case "page table walk addresses" `Quick test_page_table_walk_addrs;
    Alcotest.test_case "TLB true LRU" `Quick test_tlb_lru;
    Alcotest.test_case "0-entry TLB" `Quick test_tlb_zero_entries;
    Alcotest.test_case "PTW timing + PTE cache" `Quick test_ptw_timing_and_cache;
    Alcotest.test_case "hierarchy levels and latencies" `Quick test_hierarchy_levels;
    Alcotest.test_case "hierarchy shared level" `Quick test_hierarchy_shared_level;
    Alcotest.test_case "hierarchy flush" `Quick test_hierarchy_flush;
    Alcotest.test_case "page locality stats" `Quick test_locality_stats;
    QCheck_alcotest.to_alcotest qcheck_map_range;
    QCheck_alcotest.to_alcotest qcheck_tlb_reference;
    QCheck_alcotest.to_alcotest qcheck_hierarchy_matches_page_table;
  ]
