open Gem_sim
open Gem_mem
open Gem_util

type core = {
  id : int;
  cpu : Gem_cpu.Cpu_model.kind;
  controller : Gemmini.Controller.t;
  hierarchy : Gem_vm.Hierarchy.t;
  page_table : Gem_vm.Page_table.t;
  mutable next_vaddr : int;
  (* swap space: ppn of every page injection has unmapped, so a remap
     restores the same physical page (and its contents) *)
  swapped : (int, int) Hashtbl.t;
}

type t = {
  cfg : Soc_config.t;
  engine : Engine.t; (* one simulation context for the whole chip *)
  l2 : Cache.t;
  l2_port : Resource.t;
  dram : Dram.t;
  mainmem : Mainmem.t option;
  mutable cores_arr : core array;
  mutable next_paddr : int; (* shared physical page allocator *)
}

let page_size = Gem_vm.Page_table.page_size

(* Physical memory layout: page-table nodes for core i live in their own
   16 MiB region; data pages are allocated from a shared bump pointer
   above all node regions. *)
let pt_region_base i = 0x4000_0000 + (i * 0x0100_0000)
let data_base cores = 0x4000_0000 + (cores * 0x0100_0000)
let va_base = 0x0001_0000

(* One L2+DRAM access path shared by every requester on the SoC. Runs once
   per cache line of every DMA burst, so the line walk is a top-level
   tail-recursive function over unboxed ints (a local closure over
   [last]/[occupancy] would be allocated per call): the quiet path
   allocates nothing. *)
let rec mem_lines soc ~now ~write ~line ~occupancy ~last ln finish =
  if ln > last then finish
  else begin
    let cfg = soc.cfg in
    let addr = ln * line in
    let port_done = Engine.acquire soc.engine soc.l2_port ~now ~occupancy in
    let line_done =
      match Cache.access soc.l2 ~addr ~write with
      | Cache.Hit -> port_done + cfg.Soc_config.l2_hit_latency
      | Cache.Miss ->
          (* Allocate: fetch the line from DRAM. *)
          Dram.access soc.dram ~now:port_done ~bytes:line ~write:false
      | Cache.Miss_writeback ->
          (* A dirty victim writes back, consuming bandwidth but not
             adding to the critical path. *)
          let fetch_done =
            Dram.access soc.dram ~now:port_done ~bytes:line ~write:false
          in
          ignore (Dram.access soc.dram ~now:port_done ~bytes:line ~write:true);
          fetch_done
    in
    mem_lines soc ~now ~write ~line ~occupancy ~last (ln + 1)
      (if line_done > finish then line_done else finish)
  end

let mem_access soc ~now ~paddr ~bytes ~write =
  let cfg = soc.cfg in
  let line = cfg.Soc_config.l2_line_bytes in
  let occupancy = Mathx.ceil_div line cfg.Soc_config.l2_port_bytes in
  let first = paddr / line and last = (paddr + max bytes 1 - 1) / line in
  mem_lines soc ~now ~write ~line ~occupancy ~last first now

let make_port soc : Gemmini.Dma.port =
  {
    Gemmini.Dma.read_timing =
      (fun ~now ~paddr ~bytes -> mem_access soc ~now ~paddr ~bytes ~write:false);
    write_timing =
      (fun ~now ~paddr ~bytes -> mem_access soc ~now ~paddr ~bytes ~write:true);
    read_data =
      Option.map
        (fun mm -> fun ~paddr ~n -> Array.init n (fun i -> Mainmem.read_byte mm ~addr:(paddr + i)))
        soc.mainmem;
    write_data =
      Option.map
        (fun mm ->
          fun ~paddr bytes ->
           Array.iteri (fun i b -> Mainmem.write_byte mm ~addr:(paddr + i) b) bytes)
        soc.mainmem;
  }

let create cfg =
  (match Soc_config.validate cfg with
  | Ok () -> ()
  | Error errs -> invalid_arg ("Soc: " ^ String.concat "; " errs));
  let n = List.length cfg.Soc_config.cores in
  let engine = Engine.create () in
  (* Explicit lets fix the registry (and hence profile) order: shared
     memory system first, then each core's components. *)
  let l2 =
    Cache.create ~engine ~name:"l2" ~size_bytes:cfg.Soc_config.l2_size_bytes
      ~ways:cfg.Soc_config.l2_ways ~line_bytes:cfg.Soc_config.l2_line_bytes ()
  in
  let l2_port = Engine.resource engine ~kind:Engine.Cache ~name:"l2-port" in
  let dram =
    Dram.create ~engine ~latency:cfg.Soc_config.dram_latency
      ~bytes_per_cycle:cfg.Soc_config.dram_bytes_per_cycle ()
  in
  let soc =
    {
      cfg;
      engine;
      l2;
      l2_port;
      dram;
      mainmem = (if cfg.Soc_config.functional then Some (Mainmem.create ()) else None);
      cores_arr = [||];
      next_paddr = data_base n;
    }
  in
  let port = make_port soc in
  let cores =
    List.mapi
      (fun i (cc : Soc_config.core_config) ->
        let page_table =
          Gem_vm.Page_table.create ~node_region_base:(pt_region_base i) ()
        in
        let ptw =
          Gem_vm.Ptw.create ~engine:soc.engine
            ~name:(Printf.sprintf "core%d/ptw" i)
            ~page_table
            ~mem_read:(fun ~now ~paddr ~bytes ->
              mem_access soc ~now ~paddr ~bytes ~write:false)
            ()
        in
        let hierarchy =
          Gem_vm.Hierarchy.create ~engine:soc.engine
            ~name:(Printf.sprintf "core%d/tlb" i)
            ~core:i cc.Soc_config.tlb ~ptw
        in
        let controller =
          Gemmini.Controller.create ~engine:soc.engine
            ~name:(Printf.sprintf "core%d" i)
            ~core:i ~params:cc.Soc_config.accel ~port ~tlb:hierarchy
            ~issue_cycles:(Gem_cpu.Cpu_model.issue_cycles cc.Soc_config.cpu)
            ()
        in
        {
          id = i;
          cpu = cc.Soc_config.cpu;
          controller;
          hierarchy;
          page_table;
          next_vaddr = va_base;
          swapped = Hashtbl.create 64;
        })
      cfg.Soc_config.cores
  in
  soc.cores_arr <- Array.of_list cores;
  soc

let config t = t.cfg
let engine t = t.engine
let cores t = t.cores_arr
let core t i = t.cores_arr.(i)
let l2 t = t.l2
let dram t = t.dram
let mainmem t = t.mainmem

let core_id c = c.id
let cpu c = c.cpu
let controller c = c.controller
let tlb c = c.hierarchy
let page_table c = c.page_table

let alloc_paddr t ~pages =
  let base = t.next_paddr in
  t.next_paddr <- t.next_paddr + (pages * page_size);
  base

let alloc t c ~bytes =
  if bytes <= 0 then invalid_arg "Soc.alloc: non-positive size";
  let pages = Mathx.ceil_div bytes page_size in
  let vaddr = c.next_vaddr in
  c.next_vaddr <- c.next_vaddr + (pages * page_size);
  let paddr = alloc_paddr t ~pages in
  Gem_vm.Page_table.map_range c.page_table ~vaddr ~bytes:(pages * page_size) ~paddr;
  vaddr

let va_extent c = (va_base, c.next_vaddr)

(* --- paging (fault injection / recovery) --------------------------------- *)

let unmap_page _t c ~vaddr =
  let vpn = Gem_vm.Page_table.vpn_of_vaddr vaddr in
  match Gem_vm.Page_table.unmap c.page_table ~vpn with
  | None -> false
  | Some ppn ->
      Hashtbl.replace c.swapped vpn ppn;
      Gem_vm.Hierarchy.invalidate c.hierarchy ~vpn;
      true

let map_page t c ~vaddr =
  let vpn = Gem_vm.Page_table.vpn_of_vaddr vaddr in
  let ppn =
    match Hashtbl.find_opt c.swapped vpn with
    | Some ppn ->
        (* Swap the original physical page back in: contents survive. *)
        Hashtbl.remove c.swapped vpn;
        ppn
    | None -> Gem_vm.Page_table.vpn_of_vaddr (alloc_paddr t ~pages:1)
  in
  Gem_vm.Page_table.map c.page_table ~vpn ~ppn

(* One plan instance is shared between a core's DMA (bus-error rolls) and
   its TLB hierarchy (drop/unmap rolls): the snapshot serializes it once
   and the restore re-shares one rebuilt instance the same way. *)
let wire_inject t c plan =
  Gemmini.Dma.set_inject (Gemmini.Controller.dma c.controller) plan;
  Gem_vm.Hierarchy.set_inject c.hierarchy ~plan
    ~unmap:(fun ~vaddr -> ignore (unmap_page t c ~vaddr))
    ()

let arm_injection t ~seed ~rate =
  Array.iteri
    (fun i c ->
      (* Distinct per-core seeds: each core's plan is an independent but
         reproducible stream. *)
      let plan = Inject.create ~seed:(seed + (i * 0x9E3779B9)) ~rate () in
      wire_inject t c plan)
    t.cores_arr

(* --- snapshot / restore ---------------------------------------------------- *)

module J = Jsonx

let core_snapshot c =
  let swapped =
    Hashtbl.fold (fun vpn ppn acc -> (vpn, ppn) :: acc) c.swapped []
    |> List.sort compare
    |> List.map (fun (vpn, ppn) -> Snap.of_int_list [ vpn; ppn ])
  in
  J.Obj
    [ ("id", J.Int c.id);
      ("controller", Gemmini.Controller.snapshot c.controller);
      ("tlb", Gem_vm.Hierarchy.snapshot c.hierarchy);
      ("pt", Gem_vm.Page_table.snapshot c.page_table);
      ("next_vaddr", J.Int c.next_vaddr);
      ("swapped", J.List swapped);
      ( "inject",
        match Gemmini.Dma.inject (Gemmini.Controller.dma c.controller) with
        | None -> J.Null
        | Some plan -> Inject.to_json plan ) ]

let snapshot t =
  J.Obj
    [ ("engine", Engine.snapshot t.engine);
      ("l2", Cache.snapshot t.l2);
      ("dram", Dram.snapshot t.dram);
      ( "mainmem",
        match t.mainmem with
        | None -> J.Null
        | Some mm -> Mainmem.snapshot mm );
      ("next_paddr", J.Int t.next_paddr);
      ("cores", J.List (Array.to_list (Array.map core_snapshot t.cores_arr))) ]

let core_restore t c j =
  Snap.check ~what:"core id" (Snap.get_int "id" j = c.id);
  Gemmini.Controller.restore c.controller (Snap.member "controller" j);
  Gem_vm.Hierarchy.restore c.hierarchy (Snap.member "tlb" j);
  Gem_vm.Page_table.restore c.page_table (Snap.member "pt" j);
  c.next_vaddr <- Snap.get_int "next_vaddr" j;
  Hashtbl.reset c.swapped;
  List.iter
    (fun pair ->
      match Snap.int_list pair with
      | [ vpn; ppn ] -> Hashtbl.replace c.swapped vpn ppn
      | _ -> Snap.fail "bad swapped-page entry")
    (Snap.get_list "swapped" j);
  match Snap.member "inject" j with
  | J.Null -> ()
  | pj -> wire_inject t c (Inject.of_json pj)

let restore t j =
  Engine.restore t.engine (Snap.member "engine" j);
  Cache.restore t.l2 (Snap.member "l2" j);
  Dram.restore t.dram (Snap.member "dram" j);
  (match (t.mainmem, Snap.member "mainmem" j) with
  | None, J.Null -> ()
  | Some _, J.Null -> Snap.fail "snapshot lacks main memory (functional SoC)"
  | Some mm, mj -> Mainmem.restore mm mj
  | None, _ -> Snap.fail "snapshot has main memory but SoC is timing-only");
  t.next_paddr <- Snap.get_int "next_paddr" j;
  let cores_j = Snap.get_list "cores" j in
  Snap.check ~what:"core count"
    (List.length cores_j = Array.length t.cores_arr);
  List.iteri (fun i cj -> core_restore t t.cores_arr.(i) cj) cores_j


(* --- host-side data access (functional mode) ----------------------------- *)

let require_mainmem t =
  match t.mainmem with
  | Some mm -> mm
  | None -> invalid_arg "Soc: host data access requires a functional SoC"

let translate_exn c ~vaddr =
  match Gem_vm.Page_table.translate c.page_table ~vaddr with
  | Some paddr -> paddr
  | None -> invalid_arg (Printf.sprintf "Soc: unmapped vaddr 0x%x" vaddr)

(* Host accesses never cross page boundaries unsafely: walk bytewise by
   page segment. *)
let host_bytes_iter c ~vaddr ~n ~f =
  let off = ref 0 in
  while !off < n do
    let va = vaddr + !off in
    let in_page = page_size - (va land (page_size - 1)) in
    let seg = min in_page (n - !off) in
    let pa = translate_exn c ~vaddr:va in
    f ~pa ~off:!off ~len:seg;
    off := !off + seg
  done

let host_write_i8 t c ~vaddr data =
  let mm = require_mainmem t in
  host_bytes_iter c ~vaddr ~n:(Array.length data) ~f:(fun ~pa ~off ~len ->
      for i = 0 to len - 1 do
        Mainmem.write_i8 mm ~addr:(pa + i) data.(off + i)
      done)

let host_read_i8 t c ~vaddr ~n =
  let mm = require_mainmem t in
  let out = Array.make n 0 in
  host_bytes_iter c ~vaddr ~n ~f:(fun ~pa ~off ~len ->
      for i = 0 to len - 1 do
        out.(off + i) <- Mainmem.read_i8 mm ~addr:(pa + i)
      done);
  out

let host_write_i32 t c ~vaddr data =
  let mm = require_mainmem t in
  host_bytes_iter c ~vaddr ~n:(4 * Array.length data) ~f:(fun ~pa ~off ~len ->
      (* segments are page-sized and pages are 4-aligned, so i32s never
         straddle a segment *)
      assert (off land 3 = 0 && len land 3 = 0);
      for i = 0 to (len / 4) - 1 do
        Mainmem.write_i32 mm ~addr:(pa + (4 * i)) data.((off / 4) + i)
      done)

let host_read_i32 t c ~vaddr ~n =
  let mm = require_mainmem t in
  let out = Array.make n 0 in
  host_bytes_iter c ~vaddr ~n:(4 * n) ~f:(fun ~pa ~off ~len ->
      assert (off land 3 = 0 && len land 3 = 0);
      for i = 0 to (len / 4) - 1 do
        out.((off / 4) + i) <- Mainmem.read_i32 mm ~addr:(pa + (4 * i))
      done);
  out

(* --- program execution ---------------------------------------------------- *)

type op =
  | Insn of Gemmini.Isa.t
  | Host_work of { cycles : int; tag : string }
  | Marker of (core -> unit)
  | Guarded of { op : op; run : core -> op -> unit }

module P = Gem_obs.Profile

let exec_op_quiet c = function
  | Insn insn -> Gemmini.Controller.execute c.controller insn
  | Host_work { cycles; tag = _ } ->
      Gemmini.Controller.host_work c.controller ~cycles
  | Marker f -> f c
  | Guarded { run; op } -> run c op

(* An op is private when executing it touches only its own core's state:
   config/compute/preload instructions and the loop staging commands stay
   inside the controller and scratchpad, and host work only advances the
   core clock. Mvin/Mvout and the composite WS loop drive DMA through the
   shared L2/DRAM (and the functional main memory); markers run arbitrary
   host closures. Those must execute on the coordinator. *)
let rec op_is_private = function
  | Insn (Gemmini.Isa.Mvin _ | Gemmini.Isa.Mvout _ | Gemmini.Isa.Loop_ws _) ->
      false
  | Insn _ -> true
  | Host_work _ -> true
  | Marker _ -> false
  | Guarded { op; run = _ } -> op_is_private op

(* The per-op dispatch probe is the self-profiler's widest net: nested
   engine/DMA probes subtract themselves out, so "soc.dispatch" self
   time is pure dispatch overhead. The quiet path stays branch-only;
   the profiled path tolerates simulated traps unwinding through it. *)
let exec_op c op =
  if !P.on then begin
    P.enter P.dispatch;
    Fun.protect
      ~finally:(fun () -> P.leave P.dispatch)
      (fun () -> exec_op_quiet c op)
  end
  else exec_op_quiet c op

let run_program _t c program =
  Seq.iter (exec_op c) program;
  Gemmini.Controller.finish_time c.controller

let run_sequential t programs =
  let n = Array.length programs in
  (* Per-core stream cursors. *)
  let cursors = Array.map (fun s -> ref s) programs in
  let done_flags = Array.make n false in
  let finished = ref 0 in
  while !finished < n do
    (* Advance the live core whose issue cursor is earliest: simulated-
       time-ordered interleaving of shared-resource accesses. *)
    let best = ref (-1) in
    let best_time = ref max_int in
    for i = 0 to n - 1 do
      if not done_flags.(i) then begin
        let now = Gemmini.Controller.now (controller t.cores_arr.(i)) in
        if now < !best_time then begin
          best_time := now;
          best := i
        end
      end
    done;
    let i = !best in
    match !(cursors.(i)) () with
    | Seq.Cons (op, rest) ->
        cursors.(i) := rest;
        exec_op t.cores_arr.(i) op
    | Seq.Nil ->
        done_flags.(i) <- true;
        incr finished
  done;
  Array.mapi
    (fun i _ -> Gemmini.Controller.finish_time (controller t.cores_arr.(i)))
    programs

(* --- Domain-parallel driver -----------------------------------------------

   Private ops execute on worker Domains; shared ops (DMA through the
   L2/DRAM, markers, and forcing the lazy program streams themselves)
   stay on the coordinator. Picks happen in exactly the sequential
   driver's order, established conservatively:

   - a core is either {e busy} (one op in flight on its worker) or
     {e drained} (waiting to be picked). The sequential pick order is
     lexicographic (now, index), encoded as the single int key
     [now * n + index];
   - a core's clock never decreases while an op executes, so a busy
     core's next pick key is at least [bound * n + index], where [bound]
     is its clock at dispatch time;
   - hence the earliest drained core [j] may be picked iff its key is
     strictly below every busy core's dispatch bound: the sequential
     driver would pick [j] before any busy core could be picked again.
     Otherwise the coordinator waits for a busy core to retire.

   Overlapping a shared op with in-flight private ops is safe because
   they touch disjoint state (shared L2/DRAM vs. a core's controller and
   scratchpad) and the engine clock is kept in per-domain slots folded by
   max at the end ({!Engine.enter_parallel}). Publication is
   release/acquire through each mailbox's [m_state]: the coordinator
   writes [m_op] then stores 1; the worker loads 1, runs the op, stores
   0; the coordinator loads 0 and may again touch that core's state. *)

type mailbox = {
  mutable m_op : op; (* meaningful only while m_state = 1 *)
  m_state : int Atomic.t; (* 0 = core idle, 1 = op in flight *)
}

(* An eventcount: waiters spin briefly, then publish [ga_sleeping] and
   block on the condition. Wakers only take the mutex when a sleeper is
   published, so the uncontended (true-multicore) handoff stays a pair
   of atomic operations; on an oversubscribed host (fewer hardware
   threads than Domains) blocking hands the CPU straight to the peer
   instead of burning a scheduler quantum spinning. *)
type gate = {
  ga_mutex : Mutex.t;
  ga_cond : Condition.t;
  ga_sleeping : bool Atomic.t;
}

let make_gate () =
  {
    ga_mutex = Mutex.create ();
    ga_cond = Condition.create ();
    ga_sleeping = Atomic.make false;
  }

let gate_wake g =
  if Atomic.get g.ga_sleeping then begin
    Mutex.lock g.ga_mutex;
    Condition.signal g.ga_cond;
    Mutex.unlock g.ga_mutex
  end

(* Sleep unless [ready ()] already holds. Publishing [ga_sleeping] before
   re-checking closes the lost-wakeup race: a waker that misses the flag
   wrote its state before our re-check reads it (SC atomics), and one
   that sees the flag signals under the mutex we hold until the wait.
   Spurious wakeups are fine — every caller loops on its own predicate. *)
let gate_sleep g ~ready =
  Mutex.lock g.ga_mutex;
  Atomic.set g.ga_sleeping true;
  if not (ready ()) then Condition.wait g.ga_cond g.ga_mutex;
  Atomic.set g.ga_sleeping false;
  Mutex.unlock g.ga_mutex

let spin_budget = 200

let run_domains t programs ~domains =
  let n = Array.length programs in
  let workers = min (domains - 1) n in
  let nop = Host_work { cycles = 0; tag = "idle" } in
  let mailboxes =
    Array.init n (fun _ -> { m_op = nop; m_state = Atomic.make 0 })
  in
  let exns : exn option array = Array.make n None in
  let quit = Atomic.make false in
  let wgates = Array.init workers (fun _ -> make_gate ()) in
  let done_gate = make_gate () in
  Engine.enter_parallel t.engine ~slots:(workers + 1);
  (* Worker [w] owns cores [i] with [i mod workers = w]: at most one op
     is in flight per core, so the owner is the only domain that touches
     a busy core's state. *)
  let worker w () =
    Engine.set_domain_slot (w + 1);
    let gate = wgates.(w) in
    let pending () =
      let p = ref false in
      let i = ref w in
      while !i < n do
        if Atomic.get mailboxes.(!i).m_state = 1 then p := true;
        i := !i + workers
      done;
      !p
    in
    let stop = ref false in
    let idle = ref 0 in
    while not !stop do
      let progress = ref false in
      let i = ref w in
      while !i < n do
        let mb = mailboxes.(!i) in
        if Atomic.get mb.m_state = 1 then begin
          (try exec_op t.cores_arr.(!i) mb.m_op
           with e -> exns.(!i) <- Some e);
          Atomic.set mb.m_state 0;
          gate_wake done_gate;
          progress := true
        end;
        i := !i + workers
      done;
      if !progress then idle := 0
      else if Atomic.get quit then stop := true
      else begin
        incr idle;
        if !idle < spin_budget then Domain.cpu_relax ()
        else begin
          idle := 0;
          gate_sleep gate ~ready:(fun () -> pending () || Atomic.get quit)
        end
      end
    done
  in
  let doms = Array.init workers (fun w -> Domain.spawn (worker w)) in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set quit true;
      (* Unconditional broadcast: a worker between its sleeping-publish
         and its wait re-checks [quit] under the mutex, so none can miss
         the shutdown. *)
      Array.iter
        (fun g ->
          Mutex.lock g.ga_mutex;
          Condition.broadcast g.ga_cond;
          Mutex.unlock g.ga_mutex)
        wgates;
      Array.iter Domain.join doms;
      Engine.exit_parallel t.engine)
    (fun () ->
      Engine.set_domain_slot 0;
      let cursors = Array.map (fun s -> ref s) programs in
      let busy = Array.make n false in
      let bound = Array.make n 0 in
      let key_of i =
        (Gemmini.Controller.now t.cores_arr.(i).controller * n) + i
      in
      let some_retired () =
        let some = ref false in
        for i = 0 to n - 1 do
          if busy.(i) && Atomic.get mailboxes.(i).m_state = 0 then
            some := true
        done;
        !some
      in
      (* Drained cores, keyed by pick order. Every drained period pushes
         exactly one entry and pops it exactly once. *)
      let ready = Heap.create () in
      for i = 0 to n - 1 do
        Heap.push ready ~key:(key_of i) i
      done;
      let finished = ref 0 in
      let fatal = ref false in
      let idle = ref 0 in
      while !finished < n && not !fatal do
        (* Retire completed ops: their cores become pickable again. *)
        let reaped = ref false in
        for i = 0 to n - 1 do
          if busy.(i) && Atomic.get mailboxes.(i).m_state = 0 then begin
            busy.(i) <- false;
            if exns.(i) <> None then fatal := true
            else Heap.push ready ~key:(key_of i) i;
            reaped := true
          end
        done;
        if not !fatal then begin
          let safe key =
            let ok = ref true in
            for i = 0 to n - 1 do
              if busy.(i) && (bound.(i) * n) + i <= key then ok := false
            done;
            !ok
          in
          match Heap.peek_key ready with
          | Some key when safe key ->
              idle := 0;
              let j =
                match Heap.pop ready with
                | Some (_, j) -> j
                | None -> assert false
              in
              (match !(cursors.(j)) () with
              | Seq.Nil -> incr finished
              | Seq.Cons (op, rest) ->
                  cursors.(j) := rest;
                  if op_is_private op then begin
                    bound.(j) <-
                      Gemmini.Controller.now t.cores_arr.(j).controller;
                    busy.(j) <- true;
                    mailboxes.(j).m_op <- op;
                    Atomic.set mailboxes.(j).m_state 1;
                    gate_wake wgates.(j mod workers)
                  end
                  else begin
                    exec_op t.cores_arr.(j) op;
                    Heap.push ready ~key:(key_of j) j
                  end)
          | _ ->
              if !reaped then idle := 0
              else begin
                incr idle;
                if !idle < spin_budget then Domain.cpu_relax ()
                else begin
                  idle := 0;
                  (* Unsafe to pick while ops are in flight: wait for a
                     retirement. The unsafe-pick state implies at least
                     one busy core, so a wake-up is guaranteed. *)
                  gate_sleep done_gate ~ready:some_retired
                end
              end
        end
      done;
      if !fatal then begin
        (* Wait for the remaining in-flight ops, then surface the first
           worker exception in core order (matching the sequential
           driver's deterministic abort for single-core programs; the
           exact abort point with concurrent cores is documented as the
           one divergence from the sequential schedule). *)
        for i = 0 to n - 1 do
          while busy.(i) && Atomic.get mailboxes.(i).m_state = 1 do
            gate_sleep done_gate ~ready:(fun () ->
                Atomic.get mailboxes.(i).m_state = 0)
          done
        done;
        Array.iter (function Some e -> raise e | None -> ()) exns
      end;
      Array.mapi
        (fun i _ ->
          Gemmini.Controller.finish_time (controller t.cores_arr.(i)))
        programs)

let run_parallel ?(domains = 1) t programs =
  let n = Array.length programs in
  if n > Array.length t.cores_arr then
    invalid_arg "Soc.run_parallel: more programs than cores";
  (* Trace/event observers and the span collector are inherently
     sequential consumers, and a single stream (or core) has nothing to
     overlap: fall back to the reference driver. *)
  if domains <= 1 || n <= 1 || Engine.live t.engine then
    run_sequential t programs
  else run_domains t programs ~domains

let finish_time t =
  Array.fold_left
    (fun acc c -> max acc (Gemmini.Controller.finish_time c.controller))
    0 t.cores_arr
