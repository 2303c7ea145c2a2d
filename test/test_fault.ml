(* The fault subsystem: structured traps, the PTW occupancy regression,
   ISA validation edges, fuzzed command streams, the runtime's recovery
   policies (Retry_map / Degrade / watchdog), and deterministic fault
   injection. *)

open Gem_util
module Soc = Gem_soc.Soc
module Soc_config = Gem_soc.Soc_config
module Runtime = Gem_sw.Runtime
module Isa = Gemmini.Isa
module Local_addr = Gemmini.Local_addr
module Fault = Gem_sim.Fault
module Engine = Gem_sim.Engine

let single_core_soc () = Soc.create Soc_config.default

let squeezenet8 =
  Gem_dnn.Model_zoo.scale_model ~factor:8 Gem_dnn.Model_zoo.squeezenet

let accel_mode = Runtime.Accel { im2col_on_accel = true }

(* --- satellite: a faulting PTW walk must not occupy the walker ------------- *)

let test_ptw_fault_no_occupancy () =
  let engine = Engine.create () in
  let pt = Gem_vm.Page_table.create ~node_region_base:0x1000_0000 () in
  Gem_vm.Page_table.map pt ~vpn:1 ~ppn:50;
  let ptw =
    Gem_vm.Ptw.create ~engine ~name:"ptw" ~page_table:pt
      ~mem_read:(fun ~now ~paddr:_ ~bytes:_ -> now + 20)
      ()
  in
  (match Gem_vm.Ptw.walk ptw ~now:0 ~vpn:0x777 with
  | _ -> Alcotest.fail "walk of unmapped vpn must fault"
  | exception Gem_vm.Ptw.Page_fault 0x777 -> ());
  let ptw_stat () =
    List.find (fun s -> s.Engine.stat_name = "ptw") (Engine.stats engine)
  in
  Alcotest.(check int) "faulting walk left the walker free" 0
    (ptw_stat ()).Engine.stat_busy;
  (* A subsequent walk starts immediately: the faulting walk must not
     have committed a reservation on the shared walker. *)
  let _, finish = Gem_vm.Ptw.walk ptw ~now:0 ~vpn:1 in
  let s = ptw_stat () in
  Alcotest.(check int) "no queueing behind the faulted walk" 0 s.Engine.stat_wait;
  Alcotest.(check int) "only the successful walk is charged" finish
    s.Engine.stat_busy

(* --- Isa.validate edges ---------------------------------------------------- *)

let p = Gemmini.Params.default (* dim 16 *)

let check_cause name cmd expect =
  match Isa.validate p cmd with
  | Ok () -> Alcotest.failf "%s: expected %s, got Ok" name expect
  | Error cause ->
      Alcotest.(check string) name expect (Fault.cause_label cause)

let check_ok name cmd =
  match Isa.validate p cmd with
  | Ok () -> ()
  | Error cause -> Alcotest.failf "%s: rejected: %s" name (Fault.cause_detail cause)

let mvin ?(row = 0) ?(cols = 16) ?(rows = 16) ?(dram = 0x10000) () =
  Isa.Mvin
    ({ Isa.dram_addr = dram; local = Local_addr.scratchpad ~row; cols; rows }, 0)

let test_validate_edges () =
  check_ok "plain mvin" (mvin ());
  check_ok "wide mvin (4 blocks)" (mvin ~cols:(4 * 16) ());
  check_cause "mvin 0 cols" (mvin ~cols:0 ()) "illegal-inst";
  check_cause "mvin too many cols" (mvin ~cols:65 ()) "illegal-inst";
  check_cause "mvin rows > dim" (mvin ~rows:17 ()) "illegal-inst";
  check_cause "mvin negative dram addr" (mvin ~dram:(-1) ()) "illegal-inst";
  check_cause "mvin dram addr > 2^48" (mvin ~dram:(1 lsl 48) ()) "illegal-inst";
  check_cause "mvin to garbage"
    (Isa.Mvin
       ( { Isa.dram_addr = 0; local = Local_addr.garbage; cols = 1; rows = 1 },
         0 ))
    "illegal-inst";
  (* Last block row must stay inside the scratchpad. *)
  let sp_rows = Gemmini.Params.sp_rows p in
  check_ok "mvin at top of scratchpad" (mvin ~row:(sp_rows - 16) ());
  check_cause "mvin over scratchpad end" (mvin ~row:(sp_rows - 15) ()) "local-oob";
  check_cause "mvin channel 3"
    (Isa.Mvin
       ({ Isa.dram_addr = 0; local = Local_addr.scratchpad ~row:0; cols = 1; rows = 1 }, 3))
    "illegal-inst";
  check_cause "config_ld bad channel"
    (Isa.Config_ld { ld_stride_bytes = 0; ld_scale = 1.0; ld_shrunk = false; ld_id = 3 })
    "illegal-inst";
  check_cause "config_ld NaN scale"
    (Isa.Config_ld { ld_stride_bytes = 0; ld_scale = Float.nan; ld_shrunk = false; ld_id = 0 })
    "acc-overflow";
  check_cause "config_ex shift 64"
    (Isa.Config_ex
       { dataflow = `WS; activation = Gemmini.Peripheral.No_activation;
         sys_shift = 64; a_transpose = false; b_transpose = false })
    "illegal-inst";
  check_cause "preload c_rows > dim"
    (Isa.Preload
       { b = Local_addr.scratchpad ~row:0; c = Local_addr.accumulator ~row:0 ();
         b_cols = 16; b_rows = 16; c_cols = 16; c_rows = 17 })
    "illegal-inst";
  check_cause "loop bounds zero"
    (Isa.Loop_ws_bounds
       { lw_m = 0; lw_k = 1; lw_n = 1; lw_has_bias = false;
         lw_activation = Gemmini.Peripheral.No_activation })
    "illegal-inst";
  check_ok "fence" Isa.Fence;
  check_ok "flush" Isa.Flush

(* --- validator error table ---------------------------------------------------

   The command and parameter validators build their messages only on the
   failure path; these pin the exact [Error] values (cause and message
   text, in check order) that invalid input produces, so that the
   allocation-free rewrite of the valid path cannot drift them. *)

let ws_only = { p with Gemmini.Params.dataflow = Gemmini.Dataflow.WS }

let cmd_error_table =
  let ex ?(dataflow = `WS) ~sys_shift () =
    Isa.Config_ex
      { dataflow; activation = Gemmini.Peripheral.No_activation; sys_shift;
        a_transpose = false; b_transpose = false }
  in
  let ld ?(stride = 0) ?(scale = 1.0) id =
    Isa.Config_ld
      { ld_stride_bytes = stride; ld_scale = scale; ld_shrunk = false; ld_id = id }
  in
  let st ?(stride = 0) ?(scale = 1.0) ?pool () =
    Isa.Config_st
      { st_stride_bytes = stride; st_activation = Gemmini.Peripheral.No_activation;
        st_scale = scale; st_pool = pool }
  in
  let mv ?(dram = 0) ?(local = Local_addr.scratchpad ~row:0) ?(cols = 16)
      ?(rows = 16) () =
    { Isa.dram_addr = dram; local; cols; rows }
  in
  let preload ?(b = Local_addr.scratchpad ~row:0)
      ?(c = Local_addr.accumulator ~row:0 ()) ?(b_rows = 16) ?(c_rows = 16) () =
    Isa.Preload { b; c; b_cols = 16; b_rows; c_cols = 16; c_rows }
  in
  let compute ?(a = Local_addr.scratchpad ~row:0) ?(a_cols = 16) ?(bd_rows = 16)
      ?(bd = Local_addr.garbage) () =
    { Isa.a; bd; a_cols; a_rows = 16; bd_cols = 16; bd_rows }
  in
  let sp_rows = Gemmini.Params.sp_rows p and acc_rows = Gemmini.Params.acc_rows p in
  [
    ( "ex shift", p, ex ~sys_shift:64 (),
      "illegal-inst: sys_shift = 64 out of range [0, 63]" );
    ( "ex dataflow", ws_only, ex ~dataflow:`OS ~sys_shift:0 (),
      "illegal-inst: dataflow OS not supported by this instance (WS)" );
    ( "ex shift before dataflow", ws_only, ex ~dataflow:`OS ~sys_shift:(-1) (),
      "illegal-inst: sys_shift = -1 out of range [0, 63]" );
    ( "ld id", p, ld 3,
      "illegal-inst: ld_id = 3 out of range [0, 2]" );
    ( "ld stride", p, ld ~stride:(1 lsl 32) 0,
      "illegal-inst: ld_stride = 4294967296 out of range [0, 4294967295]" );
    ( "ld scale", p, ld ~scale:Float.infinity 0,
      "acc-overflow: non-finite scale inf" );
    ( "ld id before scale", p, ld ~scale:Float.nan 7,
      "illegal-inst: ld_id = 7 out of range [0, 2]" );
    ( "st stride", p, st ~stride:(-1) (),
      "illegal-inst: st_stride = -1 out of range [0, 4294967295]" );
    ( "st pool window", p, st ~pool:{ Isa.window = 0; stride = 1; padding = 0 } (),
      "illegal-inst: pool window = 0 out of range [1, 15]" );
    ( "st pool stride", p, st ~pool:{ Isa.window = 2; stride = 16; padding = 0 } (),
      "illegal-inst: pool stride = 16 out of range [1, 15]" );
    ( "st pool padding", p, st ~pool:{ Isa.window = 2; stride = 2; padding = -1 } (),
      "illegal-inst: pool padding = -1 out of range [0, 15]" );
    ( "st pool before scale", p,
      st ~scale:Float.nan ~pool:{ Isa.window = 0; stride = 1; padding = 0 } (),
      "illegal-inst: pool window = 0 out of range [1, 15]" );
    ( "st scale", p, st ~scale:Float.neg_infinity (),
      "acc-overflow: non-finite scale -inf" );
    ( "mvin id", p, Isa.Mvin (mv ~rows:0 (), 3),
      "illegal-inst: mvin id = 3 out of range [0, 2]" );
    ( "mvin dram", p, Isa.Mvin (mv ~dram:(1 lsl 48) (), 0),
      "illegal-inst: dram_addr = 281474976710656 out of range [0, 281474976710655]" );
    ( "mvin cols", p, Isa.Mvin (mv ~cols:65 (), 1),
      "illegal-inst: mvin cols = 65 out of range [1, 64]" );
    ( "mvin rows", p, Isa.Mvin (mv ~rows:0 (), 2),
      "illegal-inst: mvin rows = 0 out of range [1, 16]" );
    ( "mvin garbage", p, Isa.Mvin (mv ~local:Local_addr.garbage (), 0),
      "illegal-inst: mvin destination is the garbage address" );
    ( "mvin accumulate on scratchpad", p,
      Isa.Mvin (mv ~local:(Local_addr.of_bits ((1 lsl 30) lor 5)) (), 0),
      "illegal-inst: mvin accumulate flag on a scratchpad destination" );
    ( "mvin oob", p, Isa.Mvin (mv ~local:(Local_addr.scratchpad ~row:(sp_rows - 8)) ~cols:32 (), 0),
      "local-oob: scratchpad rows [16376, 16408) exceed 16384 rows" );
    ( "mvin acc oob", p,
      Isa.Mvin (mv ~local:(Local_addr.accumulator ~row:(acc_rows - 4) ()) (), 2),
      "local-oob: accumulator rows [1020, 1036) exceed 1024 rows" );
    ( "mvout dram", p, Isa.Mvout (mv ~dram:(-5) ()),
      "illegal-inst: dram_addr = -5 out of range [0, 281474976710655]" );
    ( "mvout cols", p, Isa.Mvout (mv ~cols:17 ()),
      "illegal-inst: mvout cols = 17 out of range [1, 16]" );
    ( "mvout rows", p, Isa.Mvout (mv ~rows:17 ()),
      "illegal-inst: mvout rows = 17 out of range [1, 16]" );
    ( "mvout garbage", p, Isa.Mvout (mv ~local:Local_addr.garbage ()),
      "illegal-inst: mvout source is the garbage address" );
    ( "mvout oob", p,
      Isa.Mvout (mv ~local:(Local_addr.accumulator ~row:(acc_rows - 1) ()) ()),
      "local-oob: accumulator rows [1023, 1039) exceed 1024 rows" );
    ( "preload b_rows", p, preload ~b_rows:0 (),
      "illegal-inst: preload b_rows = 0 out of range [1, 16]" );
    ( "preload c_rows", p, preload ~c_rows:17 (),
      "illegal-inst: preload c_rows = 17 out of range [1, 16]" );
    ( "preload b oob", p, preload ~b:(Local_addr.scratchpad ~row:(sp_rows - 1)) (),
      "local-oob: scratchpad rows [16383, 16399) exceed 16384 rows" );
    ( "preload c oob", p,
      preload ~c:(Local_addr.accumulator ~row:(acc_rows - 2) ()) (),
      "local-oob: accumulator rows [1022, 1038) exceed 1024 rows" );
    ( "preload b oob before c oob", p,
      preload ~b:(Local_addr.scratchpad ~row:(sp_rows - 1))
        ~c:(Local_addr.accumulator ~row:(acc_rows - 2) ()) (),
      "local-oob: scratchpad rows [16383, 16399) exceed 16384 rows" );
    ( "compute a_cols", p, Isa.Compute_preloaded (compute ~a_cols:0x10000 ()),
      "illegal-inst: compute a_cols = 65536 out of range [1, 65535]" );
    ( "compute bd_rows", p, Isa.Compute_accumulated (compute ~bd_rows:0 ()),
      "illegal-inst: compute bd_rows = 0 out of range [1, 65535]" );
    ( "compute a oob", p,
      Isa.Compute_preloaded (compute ~a:(Local_addr.scratchpad ~row:(sp_rows - 3)) ()),
      "local-oob: scratchpad rows [16381, 16397) exceed 16384 rows" );
    ( "compute bd oob", p,
      Isa.Compute_accumulated
        (compute ~bd:(Local_addr.accumulator ~row:acc_rows ()) ()),
      "local-oob: accumulator rows [1024, 1040) exceed 1024 rows" );
    ( "loop bounds", p,
      Isa.Loop_ws_bounds
        { lw_m = 1; lw_k = 0x10000; lw_n = 0; lw_has_bias = false;
          lw_activation = Gemmini.Peripheral.No_activation },
      "illegal-inst: loop k = 65536 out of range [1, 65535]" );
    ( "loop addrs", p, Isa.Loop_ws_addrs { lw_a = 0; lw_b = -1 },
      "illegal-inst: loop b = -1 out of range [0, 281474976710655]" );
    ( "loop outs", p, Isa.Loop_ws_outs { lw_bias = 1 lsl 48; lw_c = 1 lsl 49 },
      "illegal-inst: loop bias = 281474976710656 out of range [0, 281474976710655]" );
    ( "loop strides", p,
      Isa.Loop_ws
        { lw_a_stride = 0; lw_b_stride = 1 lsl 24; lw_c_stride = 0; lw_scale = 1.0 },
      "illegal-inst: b stride = 16777216 out of range [0, 16777215]" );
    ( "loop scale", p,
      Isa.Loop_ws
        { lw_a_stride = 0; lw_b_stride = 0; lw_c_stride = 0; lw_scale = Float.nan },
      "acc-overflow: non-finite scale nan" );
  ]

let cause_text cause =
  Printf.sprintf "%s: %s" (Fault.cause_label cause) (Fault.cause_detail cause)

let test_validate_error_table () =
  List.iter
    (fun (name, params, cmd, want) ->
      match Isa.validate params cmd with
      | Ok () -> Alcotest.failf "%s: accepted %s" name (Isa.to_string cmd)
      | Error cause -> Alcotest.(check string) name want (cause_text cause))
    cmd_error_table

let params_error_table =
  let module P = Gemmini.Params in
  [
    ( "zero mesh", { P.default with mesh_rows = 0 },
      [
        "mesh dimensions must be positive";
        "spatial array must be square, got 0x16";
      ] );
    ( "non-square", { P.default with mesh_cols = 8 },
      [
        "spatial array must be square, got 16x8";
      ] );
    ( "float acc for int input",
      { P.default with acc_type = Gemmini.Dtype.Fp32 },
      [
        "accumulator type fp32 cannot accumulate int8 inputs";
      ] );
    ( "everything wrong",
      { P.default with
        tile_cols = 0; sp_capacity_bytes = 0; acc_capacity_bytes = 100;
        sp_banks = 3; acc_banks = 0; dma_bus_bytes = 0; max_in_flight = 0;
        freq_ghz = 0. },
      [
        "tile dimensions must be positive";
        "spatial array must be square, got 16x0";
        "scratchpad capacity must be positive";
        "scratchpad bank count must be a power of two";
        "accumulator bank count must be a power of two";
        "DMA bus width must be positive";
        "in-flight command window must be positive";
        "clock frequency must be positive";
      ] );
    ( "unbanked capacities",
      { P.default with sp_capacity_bytes = 1000; acc_capacity_bytes = 1000 },
      [
        "scratchpad capacity must divide evenly into banked rows";
        "accumulator capacity must divide evenly into banked rows";
      ] );
  ]

let test_params_error_table () =
  List.iter
    (fun (name, params, want) ->
      match Gemmini.Params.validate params with
      | Ok () -> Alcotest.failf "%s: accepted" name
      | Error errs -> Alcotest.(check (list string)) name want errs)
    params_error_table;
  Alcotest.check_raises "validate_exn joins every message"
    (Invalid_argument
       "Params: mesh dimensions must be positive; spatial array must be \
        square, got 0x16")
    (fun () ->
      ignore
        (Gemmini.Params.validate_exn { Gemmini.Params.default with mesh_rows = 0 }))

(* The mesh cost model does not re-validate [Params] on each compute, so
   an invalid record must still be refused where it enters: at the
   controller and at kernel lowering. *)
let test_params_refused_on_entry () =
  let bad = { Gemmini.Params.default with Gemmini.Params.sp_banks = 3 } in
  let refused name f =
    match f () with
    | _ -> Alcotest.failf "%s accepted an invalid Params.t" name
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (name ^ " names the violation") true
          (String.starts_with ~prefix:"Params: " msg)
  in
  let pt = Gem_vm.Page_table.create ~node_region_base:0x1000_0000 () in
  let ptw =
    Gem_vm.Ptw.create ~page_table:pt
      ~mem_read:(fun ~now ~paddr:_ ~bytes:_ -> now + 20)
      ()
  in
  let tlb = Gem_vm.Hierarchy.create Gem_vm.Hierarchy.default_config ~ptw in
  refused "Controller.create" (fun () ->
      ignore
        (Gemmini.Controller.create ~params:bad ~port:Gemmini.Dma.null_port ~tlb
           ~issue_cycles:1 ()));
  refused "Kernels.matmul_steps" (fun () ->
      let _ : Gem_sw.Kernels.steps =
        Gem_sw.Kernels.matmul_steps bad ~a:0 ~b:0x1000 ~out:0x2000
          (Gem_sw.Lower.matmul_shape bad ~m:16 ~k:16 ~n:16 ())
      in
      ())

(* --- fuzz: malformed streams only ever trap -------------------------------- *)

let random_local rng =
  match Rng.int rng 6 with
  | 0 -> Local_addr.garbage
  | 1 -> Local_addr.scratchpad ~row:(Rng.int rng 32768)
  | 2 ->
      Local_addr.accumulator ~accumulate:(Rng.bool rng)
        ~row:(Rng.int rng 8192) ()
  | 3 -> Local_addr.scratchpad ~row:(Rng.int rng 64)
  | 4 -> Local_addr.accumulator ~row:(Rng.int rng 64) ()
  | _ -> Local_addr.of_bits (Rng.int rng 0x4000_0000)

let random_dram rng ~base =
  match Rng.int rng 4 with
  | 0 -> base + Rng.int rng 4096
  | 1 -> Rng.int rng 0x100_0000
  | 2 -> (1 lsl 48) + Rng.int rng 1024 (* beyond the 48-bit VA space *)
  | _ -> Rng.int rng (1 lsl 30)

(* Mostly-plausible dims with deliberate poison values. *)
let random_dim rng =
  match Rng.int rng 8 with
  | 0 -> 0
  | 1 -> Rng.int_in rng ~lo:65 ~hi:300
  | _ -> Rng.int_in rng ~lo:1 ~hi:16

let random_scale rng =
  Rng.pick rng [| 1.0; 0.0625; -2.0; Float.nan; Float.infinity |]

let random_cmd rng ~base =
  match Rng.int rng 14 with
  | 0 ->
      Isa.Config_ex
        { dataflow = (if Rng.bool rng then `WS else `OS);
          activation = Gemmini.Peripheral.No_activation;
          sys_shift = Rng.int rng 80;
          a_transpose = false; b_transpose = false }
  | 1 ->
      Isa.Config_ld
        { ld_stride_bytes = Rng.int rng 0x2_0000; ld_scale = random_scale rng;
          ld_shrunk = Rng.bool rng; ld_id = Rng.int rng 4 }
  | 2 ->
      Isa.Config_st
        { st_stride_bytes = Rng.int rng 0x2_0000;
          st_activation = Gemmini.Peripheral.No_activation;
          st_scale = random_scale rng; st_pool = None }
  | 3 | 4 ->
      Isa.Mvin
        ( { Isa.dram_addr = random_dram rng ~base; local = random_local rng;
            cols = random_dim rng; rows = random_dim rng },
          Rng.int rng 4 )
  | 5 | 6 ->
      Isa.Mvout
        { Isa.dram_addr = random_dram rng ~base; local = random_local rng;
          cols = random_dim rng; rows = random_dim rng }
  | 7 ->
      Isa.Preload
        { b = random_local rng; c = random_local rng;
          b_cols = random_dim rng; b_rows = random_dim rng;
          c_cols = random_dim rng; c_rows = random_dim rng }
  | 8 | 9 ->
      let args =
        { Isa.a = random_local rng; bd = random_local rng;
          a_cols = random_dim rng; a_rows = random_dim rng;
          bd_cols = random_dim rng; bd_rows = random_dim rng }
      in
      if Rng.bool rng then Isa.Compute_preloaded args
      else Isa.Compute_accumulated args
  | 10 ->
      (* Bounds capped well below 2^16: an accepted LOOP_WS expands into
         real micro-ops, so keep the tile count small. *)
      Isa.Loop_ws_bounds
        { lw_m = Rng.int_in rng ~lo:0 ~hi:100; lw_k = Rng.int_in rng ~lo:0 ~hi:100;
          lw_n = Rng.int_in rng ~lo:0 ~hi:100; lw_has_bias = Rng.bool rng;
          lw_activation = Gemmini.Peripheral.No_activation }
  | 11 ->
      Isa.Loop_ws_addrs { lw_a = random_dram rng ~base; lw_b = random_dram rng ~base }
  | 12 ->
      Isa.Loop_ws
        { lw_a_stride = Rng.int rng 200; lw_b_stride = Rng.int rng 200;
          lw_c_stride = Rng.int rng 200; lw_scale = random_scale rng }
  | _ -> if Rng.bool rng then Isa.Fence else Isa.Flush

let test_fuzz_streams () =
  let soc = single_core_soc () in
  let core = Soc.core soc 0 in
  let base = Soc.alloc soc core ~bytes:(1 lsl 20) in
  let ctrl = Soc.controller core in
  let rng = Rng.create ~seed:0xF0F0 in
  let traps = ref 0 and oks = ref 0 in
  for _stream = 1 to 1000 do
    for _i = 1 to 8 do
      let cmd = random_cmd rng ~base in
      match Gemmini.Controller.execute ctrl cmd with
      | () -> incr oks
      | exception Fault.Trap f ->
          incr traps;
          (* Every trap names its core, component and cycle. *)
          Alcotest.(check int) "trap core" 0 f.Fault.core;
          if String.length f.Fault.component = 0 then
            Alcotest.fail "trap without component";
          if f.Fault.cycle < 0 then Alcotest.fail "trap with negative cycle"
      | exception e ->
          Alcotest.failf "unstructured escape from %s: %s" (Isa.to_string cmd)
            (Printexc.to_string e)
    done
  done;
  Alcotest.(check bool) "fuzz saw traps" true (!traps > 1000);
  Alcotest.(check bool) "fuzz saw successes" true (!oks > 100)

(* --- recovery policies ------------------------------------------------------ *)

let unmap_every soc core ~nth =
  let lo, hi = Soc.va_extent core in
  let page = Gem_vm.Page_table.page_size in
  let n = ref 0 in
  let va = ref lo in
  while !va < hi do
    if !n mod nth = 0 then ignore (Soc.unmap_page soc core ~vaddr:!va);
    incr n;
    va := !va + page
  done

let test_retry_map_resnet () =
  (* Full ResNet timing run starting with a hole-ridden address space:
     Retry_map's page-fault handler must carry it to completion. *)
  let model = Gem_dnn.Model_zoo.scale_model ~factor:8 Gem_dnn.Model_zoo.resnet50 in
  let soc = single_core_soc () in
  let r =
    (Runtime.run_parallel ~policy:Runtime.Retry_map
       ~prepare:(fun () -> unmap_every soc (Soc.core soc 0) ~nth:5)
       soc [| (model, accel_mode) |]).(0)
  in
  Alcotest.(check bool) "run completed" true (r.Runtime.r_total_cycles > 0);
  Alcotest.(check bool) "page faults recovered" true
    (List.length r.Runtime.r_faults > 10);
  List.iter
    (fun fr ->
      Alcotest.(check string) "every action is a remap" "remap" fr.Runtime.fr_action;
      Alcotest.(check string) "every cause is a page fault" "page-fault"
        (Fault.cause_label fr.Runtime.fr_fault.Fault.cause))
    r.Runtime.r_faults;
  (* Recovery costs cycles but converges to the same layer structure. *)
  let clean =
    Runtime.run (single_core_soc ()) ~core:0 model ~mode:accel_mode
  in
  Alcotest.(check int) "same layer count"
    (List.length clean.Runtime.r_layers)
    (List.length r.Runtime.r_layers);
  (* No cycle-count ordering is asserted between the two runs: an aborted
     DMA burst's L2 line fills survive the trap (speculative fills, as on
     real hardware), so the retried rows can hit where the clean run
     missed — recovery overhead and cache warming pull in opposite
     directions. *)
  ignore clean.Runtime.r_total_cycles

let test_degrade_completes () =
  (* Unmap the network input: the first layer's first mvin traps, the
     layer degrades to the CPU kernel, and the run still completes. *)
  let soc = single_core_soc () in
  let r =
    (Runtime.run_parallel ~policy:Runtime.Degrade
       ~prepare:(fun () ->
         let core = Soc.core soc 0 in
         let lo, _ = Soc.va_extent core in
         ignore (Soc.unmap_page soc core ~vaddr:lo))
       soc [| (squeezenet8, accel_mode) |]).(0)
  in
  Alcotest.(check bool) "run completed" true (r.Runtime.r_total_cycles > 0);
  (match r.Runtime.r_faults with
  | [] -> Alcotest.fail "expected a degrade record"
  | fr :: _ ->
      Alcotest.(check string) "action" "degrade" fr.Runtime.fr_action;
      Alcotest.(check string) "cause" "page-fault"
        (Fault.cause_label fr.Runtime.fr_fault.Fault.cause));
  Alcotest.(check int) "all layers accounted"
    (List.length squeezenet8.Gem_dnn.Layer.layers)
    (List.length r.Runtime.r_layers)

let test_watchdog () =
  (* An absurdly tight per-layer budget fires the watchdog. Abort
     propagates the trap; Degrade absorbs it and finishes the run. *)
  (match
     Runtime.run ~watchdog:50 (single_core_soc ()) ~core:0 squeezenet8
       ~mode:accel_mode
   with
  | _ -> Alcotest.fail "watchdog under Abort must raise"
  | exception Fault.Trap f ->
      Alcotest.(check string) "cause" "watchdog-timeout"
        (Fault.cause_label f.Fault.cause));
  let r =
    Runtime.run ~policy:Runtime.Degrade ~watchdog:50 (single_core_soc ())
      ~core:0 squeezenet8 ~mode:accel_mode
  in
  Alcotest.(check bool) "degrade absorbs the watchdog" true
    (r.Runtime.r_total_cycles > 0);
  Alcotest.(check bool) "timeouts recorded" true
    (List.exists
       (fun fr ->
         Fault.cause_label fr.Runtime.fr_fault.Fault.cause = "watchdog-timeout")
       r.Runtime.r_faults)

let fault_trace r =
  List.map
    (fun fr -> fr.Runtime.fr_action ^ " " ^ Fault.to_string fr.Runtime.fr_fault)
    r.Runtime.r_faults

(* The watchdog is checked before every command a layer issues, so where
   it trips (and the cycles the degraded run then charges) depends on the
   command granularity the guard sees. These figures are resnet50/8 under
   Degrade, the `run --fault-policy degrade --watchdog N` CLI run: fusing
   commands into fewer dispatches must not move them. *)
let test_watchdog_trip_point () =
  let resnet8 = Gem_dnn.Model_zoo.scale_model ~factor:8 Gem_dnn.Model_zoo.resnet50 in
  List.iter
    (fun (limit, cycles, faults, digest) ->
      let r =
        Runtime.run ~policy:Runtime.Degrade ~watchdog:limit (single_core_soc ())
          ~core:0 resnet8 ~mode:accel_mode
      in
      let name = Printf.sprintf "watchdog %d" limit in
      Alcotest.(check int) (name ^ " cycles") cycles r.Runtime.r_total_cycles;
      Alcotest.(check int) (name ^ " faults") faults (List.length r.Runtime.r_faults);
      Alcotest.(check string) (name ^ " fault list") digest
        (Digest.to_hex
           (Digest.string
              (String.concat "\n"
                 (List.map2
                    (fun fr line -> fr.Runtime.fr_layer ^ " " ^ line)
                    r.Runtime.r_faults (fault_trace r))))))
    [ (30000, 927_424_249, 22, "8abc6455a01f47f04b22cfdefb20ddfe"); (7777, 2_153_288_255, 72, "8137b62223352fd853f2054479483a53") ]

(* --- deterministic injection ------------------------------------------------ *)

let injected_run ~seed =
  let soc = single_core_soc () in
  Soc.arm_injection soc ~seed ~rate:0.0005;
  let r =
    Runtime.run ~policy:Runtime.Retry_map soc ~core:0 squeezenet8
      ~mode:accel_mode
  in
  (r.Runtime.r_total_cycles, fault_trace r)

let test_injection_determinism () =
  let c1, t1 = injected_run ~seed:42 in
  let c2, t2 = injected_run ~seed:42 in
  Alcotest.(check bool) "injection fired" true (List.length t1 > 0);
  Alcotest.(check (list string)) "same seed, same fault trace" t1 t2;
  Alcotest.(check int) "same seed, same final cycle count" c1 c2

let injected_dual_run ~seed =
  let soc = Soc.create Soc_config.dual_core in
  Soc.arm_injection soc ~seed ~rate:0.0005;
  let rs =
    Runtime.run_parallel ~policy:Runtime.Retry_map soc
      [| (squeezenet8, accel_mode); (squeezenet8, accel_mode) |]
  in
  ( Array.to_list (Array.map (fun r -> r.Runtime.r_total_cycles) rs),
    List.concat_map fault_trace (Array.to_list rs) )

let test_dual_core_injection_determinism () =
  let c1, t1 = injected_dual_run ~seed:7 in
  let c2, t2 = injected_dual_run ~seed:7 in
  Alcotest.(check bool) "injection fired on both cores" true
    (List.length t1 > 0);
  Alcotest.(check (list string)) "dual-core fault traces match" t1 t2;
  Alcotest.(check (list int)) "dual-core finish times match" c1 c2;
  (* Pinned values: the trace and finish times move with any change to
     the interleaving or to where the guard runs. *)
  Alcotest.(check int) "dual-core faults" 251 (List.length t1);
  Alcotest.(check string) "dual-core fault trace"
    "fc924f9b21df16ea07b40a90e8ad5745"
    (Digest.to_hex (Digest.string (String.concat "\n" t1)));
  Alcotest.(check (list int)) "dual-core finish times" [ 785564; 791206 ] c1

(* At rate 1.0 every re-issue faults again, so Retry_map must give up after
   a bounded number of re-issues and let the trap escape. *)
let test_retry_bounded () =
  let soc = single_core_soc () in
  Soc.arm_injection soc ~seed:3 ~rate:1.0;
  match
    Runtime.run ~policy:Runtime.Retry_map soc ~core:0 squeezenet8
      ~mode:accel_mode
  with
  | _ -> Alcotest.fail "a rate-1.0 retry run must end in a trap"
  | exception Fault.Trap _ -> ()

(* --- injection across checkpoint/restore ------------------------------------ *)

let rec drop n l =
  if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl

let test_injection_restore_determinism () =
  (* A seeded injected run interrupted mid-network and restored into a
     fresh SoC must trip the exact same faults at the exact same cycles:
     the plan's RNG cursor rides in the snapshot, so the remaining trace
     is precisely the uninterrupted run's suffix. *)
  let soc1 = single_core_soc () in
  Soc.arm_injection soc1 ~seed:42 ~rate:0.0005;
  let r1 =
    Runtime.run ~policy:Runtime.Retry_map soc1 ~core:0 squeezenet8
      ~mode:accel_mode
  in
  let t1 = fault_trace r1 in
  let snap1 = Jsonx.to_string (Soc.snapshot soc1) in
  let k = List.length squeezenet8.Gem_dnn.Layer.layers / 2 in
  let soc2 = single_core_soc () in
  Soc.arm_injection soc2 ~seed:42 ~rate:0.0005;
  let mid = ref None in
  let _ =
    Runtime.run_parallel ~policy:Runtime.Retry_map
      ~on_layer:(fun ~layer ~records ~finish ->
        if layer = k then mid := Some (records, finish, Soc.snapshot soc2))
      soc2 [| (squeezenet8, accel_mode) |]
  in
  let records, finish, soc_json =
    match !mid with
    | Some v -> v
    | None -> Alcotest.failf "no checkpoint captured at layer %d" k
  in
  (* No arm_injection on the fresh SoC: the armed plan (cursor included)
     is part of the snapshot being restored. *)
  let soc3 = single_core_soc () in
  let r3 =
    (Runtime.run_parallel ~policy:Runtime.Retry_map
       ~prepare:(fun () -> Soc.restore soc3 soc_json)
       ~start_layer:(k + 1) ~resume:(records, finish) soc3
       [| (squeezenet8, accel_mode) |]).(0)
  in
  let t3 = fault_trace r3 in
  Alcotest.(check int) "same final cycle count" r1.Runtime.r_total_cycles
    r3.Runtime.r_total_cycles;
  Alcotest.(check bool) "faults fired after the restore point" true
    (List.length t3 > 0);
  Alcotest.(check (list string))
    "restored run trips the same faults at the same cycles"
    (drop (List.length t1 - List.length t3) t1)
    t3;
  Alcotest.(check string) "final SoC state byte-identical" snap1
    (Jsonx.to_string (Soc.snapshot soc3))

(* --- span hygiene on abort paths --------------------------------------------- *)

module Span = Gem_sim.Span

(* A recorder on [soc]'s engine, and the network span it saw open (the
   record's end stamp fills in when the span closes). *)
let span_recorder soc =
  let network = ref None in
  let rc =
    Span.create
      {
        Span.on_open =
          (fun s -> if s.Span.cat = "network" then network := Some s);
        on_close = ignore;
      }
  in
  Engine.add_sink (Soc.engine soc) (Span.on_event rc);
  (rc, fun () -> !network)

let test_degrade_final_layer_closes_network_span () =
  (* A watchdog trap fires on every layer — the final one included. The
     Degrade handler must still emit the network-close marker, and clean
     span accounting must hold: nothing orphaned, nothing left open. *)
  let soc = single_core_soc () in
  let rc, network_span = span_recorder soc in
  let r =
    Runtime.run ~policy:Runtime.Degrade ~watchdog:50 soc ~core:0 squeezenet8
      ~mode:accel_mode
  in
  Alcotest.(check bool) "degraded run completed" true
    (r.Runtime.r_total_cycles > 0);
  (match network_span () with
  | None -> Alcotest.fail "network span missing"
  | Some s ->
      Alcotest.(check bool) "network span closed" true (s.Span.t1 >= 0));
  Alcotest.(check int) "no orphan closes" 0 (Span.orphan_closes rc);
  Alcotest.(check int) "no span left open" 0 (Span.open_count rc)

let test_abort_closes_network_span () =
  (* When a trap escapes the policy entirely, the runtime closes the
     still-open layer and network spans at the abort horizon before
     re-raising, so an aborted trace is still a well-formed tree. *)
  let soc = single_core_soc () in
  let rc, network_span = span_recorder soc in
  (match Runtime.run ~watchdog:50 soc ~core:0 squeezenet8 ~mode:accel_mode with
  | _ -> Alcotest.fail "watchdog under Abort must raise"
  | exception Fault.Trap _ -> ());
  (match network_span () with
  | None -> Alcotest.fail "network span missing"
  | Some s ->
      Alcotest.(check bool) "network span closed on abort" true
        (s.Span.t1 >= 0));
  Alcotest.(check int) "no orphan closes" 0 (Span.orphan_closes rc);
  Alcotest.(check int) "no span left open" 0 (Span.open_count rc)

let test_clean_run_span_accounting () =
  (* Guard rails for the abort-path closer: a clean run must not pick up
     spurious closes from it. *)
  let soc = single_core_soc () in
  let rc, _ = span_recorder soc in
  let _ = Runtime.run soc ~core:0 squeezenet8 ~mode:accel_mode in
  Alcotest.(check int) "no orphan closes" 0 (Span.orphan_closes rc);
  Alcotest.(check int) "no forced closes" 0 (Span.forced_closes rc);
  Alcotest.(check int) "no span left open" 0 (Span.open_count rc)

(* --- profile integration ---------------------------------------------------- *)

let test_profile_faults_column () =
  (* Clean run: the Faults column exists and is all zero. *)
  let soc = single_core_soc () in
  let r = Runtime.run soc ~core:0 squeezenet8 ~mode:accel_mode in
  Alcotest.(check bool) "clean run has no faults" true
    (r.Runtime.r_faults = []);
  List.iter
    (fun s -> Alcotest.(check int) ("clean " ^ s.Engine.stat_name) 0 s.Engine.stat_faults)
    r.Runtime.r_profile;
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  let table = Gem_util.Table.render (Engine.utilization_table (Soc.engine soc) ()) in
  Alcotest.(check bool) "profile has a Faults column" true
    (contains ~needle:"Faults" table);
  (* Injected run: counted traps appear against their components. *)
  let soc = single_core_soc () in
  Soc.arm_injection soc ~seed:42 ~rate:0.0005;
  let r =
    Runtime.run ~policy:Runtime.Retry_map soc ~core:0 squeezenet8
      ~mode:accel_mode
  in
  let counted =
    List.fold_left (fun acc s -> acc + s.Engine.stat_faults) 0 r.Runtime.r_profile
  in
  Alcotest.(check int) "profile fault counts cover every handled trap"
    (List.length r.Runtime.r_faults) counted;
  Alcotest.(check int) "engine total agrees"
    counted
    (Engine.total_faults (Soc.engine soc))

let suite =
  [
    Alcotest.test_case "PTW: faulting walk leaves walker free" `Quick
      test_ptw_fault_no_occupancy;
    Alcotest.test_case "Isa.validate edges" `Quick test_validate_edges;
    Alcotest.test_case "Isa.validate error table" `Quick test_validate_error_table;
    Alcotest.test_case "Params.validate error table" `Quick test_params_error_table;
    Alcotest.test_case "invalid Params refused on entry" `Quick
      test_params_refused_on_entry;
    Alcotest.test_case "fuzz: 1000 malformed streams only trap" `Quick
      test_fuzz_streams;
    Alcotest.test_case "Retry_map completes ResNet with unmapped pages" `Quick
      test_retry_map_resnet;
    Alcotest.test_case "Degrade completes after a forced trap" `Quick
      test_degrade_completes;
    Alcotest.test_case "watchdog timeout" `Quick test_watchdog;
    Alcotest.test_case "watchdog trip point (resnet50/8)" `Quick
      test_watchdog_trip_point;
    Alcotest.test_case "injection determinism (single core)" `Quick
      test_injection_determinism;
    Alcotest.test_case "injection determinism (dual core)" `Quick
      test_dual_core_injection_determinism;
    Alcotest.test_case "Retry_map gives up at rate 1.0" `Quick
      test_retry_bounded;
    Alcotest.test_case "injection determinism across restore" `Quick
      test_injection_restore_determinism;
    Alcotest.test_case "Degrade on final layer closes network span" `Quick
      test_degrade_final_layer_closes_network_span;
    Alcotest.test_case "abort path closes network span" `Quick
      test_abort_closes_network_span;
    Alcotest.test_case "clean run span accounting" `Quick
      test_clean_run_span_accounting;
    Alcotest.test_case "profile faults column" `Quick test_profile_faults_column;
  ]
