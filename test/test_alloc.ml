(* Zero-allocation pins for the quiet command path: every call a quiet
   timing run makes per command — validation, the staging commands'
   controller updates, the L2 access and the TLB hit — must allocate
   nothing on valid input. [Test_sim.measure_alloc] calibrates away its
   own counter reads, so any byte reported here is the callee's. The
   program cursor gets a bounded-lookahead pin, and its two consumers
   (direct pull, [Seq] adapter) an equivalence check. *)

open Gemmini
module L = Local_addr

let measure_alloc = Test_sim.measure_alloc
let iters = 1_000

let check_zero name f =
  let bytes = measure_alloc (fun () -> for _ = 1 to iters do f () done) in
  Alcotest.(check (float 0.)) (name ^ " allocates nothing") 0. bytes

let p = Params.default

(* One well-formed command per constructor, every optional path taken
   (pooling store config, accumulator destinations, garbage operands). *)
let valid_cmds =
  [
    Isa.Config_ex
      { dataflow = `WS; activation = Peripheral.Relu; sys_shift = 3;
        a_transpose = false; b_transpose = true };
    Isa.Config_ld
      { ld_stride_bytes = 64; ld_scale = 0.5; ld_shrunk = true; ld_id = 2 };
    Isa.Config_st
      { st_stride_bytes = 64; st_activation = Peripheral.No_activation;
        st_scale = 0.0625;
        st_pool = Some { Isa.window = 3; stride = 2; padding = 1 } };
    Isa.Mvin
      ( { Isa.dram_addr = 0x1000; local = L.scratchpad ~row:32; cols = 64;
          rows = 16 },
        1 );
    Isa.Mvin
      ( { Isa.dram_addr = 0x2000; local = L.accumulator ~accumulate:true ~row:16 ();
          cols = 16; rows = 8 },
        2 );
    Isa.Mvout
      { Isa.dram_addr = 0x3000; local = L.accumulator ~row:0 (); cols = 16;
        rows = 16 };
    Isa.Preload
      { b = L.scratchpad ~row:0; c = L.accumulator ~row:0 (); b_cols = 16;
        b_rows = 16; c_cols = 16; c_rows = 16 };
    Isa.Preload
      { b = L.garbage; c = L.garbage; b_cols = 16; b_rows = 16; c_cols = 16;
        c_rows = 16 };
    Isa.Compute_preloaded
      { Isa.a = L.scratchpad ~row:16; bd = L.garbage; a_cols = 16;
        a_rows = 16; bd_cols = 16; bd_rows = 16 };
    Isa.Compute_accumulated
      { Isa.a = L.scratchpad ~row:16; bd = L.accumulator ~row:32 ();
        a_cols = 16; a_rows = 16; bd_cols = 16; bd_rows = 16 };
    Isa.Loop_ws_bounds
      { lw_m = 64; lw_k = 64; lw_n = 64; lw_has_bias = true;
        lw_activation = Peripheral.Relu };
    Isa.Loop_ws_addrs { lw_a = 0x1000; lw_b = 0x2000 };
    Isa.Loop_ws_outs { lw_bias = 0x3000; lw_c = 0x4000 };
    Isa.Loop_ws
      { lw_a_stride = 64; lw_b_stride = 64; lw_c_stride = 64; lw_scale = 1.0 };
    Isa.Flush;
    Isa.Fence;
  ]

let test_isa_validate () =
  List.iter
    (fun cmd ->
      (match Isa.validate p cmd with
      | Ok () -> ()
      | Error c ->
          Alcotest.failf "%s rejected: %s" (Isa.to_string cmd)
            (Gem_sim.Fault.cause_detail c));
      check_zero ("Isa.validate " ^ Isa.mnemonic cmd) (fun () ->
          ignore (Isa.validate p cmd)))
    valid_cmds

let test_params_validate () =
  List.iter
    (fun (name, params) ->
      Alcotest.(check bool) (name ^ " is valid") true
        (Params.validate params = Ok ());
      check_zero ("Params.validate " ^ name) (fun () ->
          ignore (Params.validate params)))
    [ ("default", Params.default); ("edge", Params.edge); ("cloud", Params.cloud) ]

(* One set, two ways, 64-byte lines: cycling three lines through the set
   misses on every access. *)
let test_cache_access () =
  let module C = Gem_mem.Cache in
  let c = C.create ~size_bytes:128 ~ways:2 ~line_bytes:64 () in
  let expect name want addr ~write =
    let got = C.access c ~addr ~write in
    if got <> want then Alcotest.failf "%s: unexpected cache outcome" name
  in
  expect "first touch" C.Miss 0 ~write:false;
  check_zero "Cache.access hit" (fun () ->
      expect "hit" C.Hit 0 ~write:false);
  let line = ref 0 in
  check_zero "Cache.access clean miss" (fun () ->
      line := (!line + 1) mod 3;
      expect "clean miss" C.Miss (64 * (10 + !line)) ~write:false);
  (* Dirty every resident line, then keep writing: each miss evicts a
     dirty victim. *)
  for l = 0 to 2 do ignore (C.access c ~addr:(64 * (20 + l)) ~write:true) done;
  (* Lines 21 and 22 are resident; 20 comes next. *)
  line := 2;
  check_zero "Cache.access writeback miss" (fun () ->
      line := (!line + 1) mod 3;
      expect "writeback miss" C.Miss_writeback (64 * (20 + !line)) ~write:true)

let test_tlb_hit () =
  let module T = Gem_vm.Tlb in
  let tlb = T.create ~entries:4 in
  T.fill tlb ~vpn:7 ~ppn:70;
  Alcotest.(check int) "hit returns the ppn" 70 (T.lookup tlb ~vpn:7);
  check_zero "Tlb.lookup hit" (fun () -> ignore (T.lookup tlb ~vpn:7))

(* The cache and DMA derive their line shifts through these at create
   time; a local recursive helper would close over its argument. *)
let test_mathx_log2 () =
  let module M = Gem_util.Mathx in
  Alcotest.(check int) "log2_ceil 100" 7 (M.log2_ceil 100);
  Alcotest.(check int) "log2_exact 64" 6 (M.log2_exact 64);
  let n = ref 1 in
  check_zero "Mathx.log2_ceil" (fun () ->
      n := (!n mod 4096) + 1;
      ignore (Sys.opaque_identity (M.log2_ceil !n)));
  check_zero "Mathx.log2_exact" (fun () ->
      ignore (Sys.opaque_identity (M.log2_exact (Sys.opaque_identity 64))))

(* Timing-mode controller on a private engine with the null port: the
   staging and compute commands touch only controller state and the
   engine's pipes. *)
let test_controller_execute () =
  let pt = Gem_vm.Page_table.create ~node_region_base:0x1000_0000 () in
  let ptw =
    Gem_vm.Ptw.create ~page_table:pt
      ~mem_read:(fun ~now ~paddr:_ ~bytes:_ -> now + 20)
      ()
  in
  let tlb = Gem_vm.Hierarchy.create Gem_vm.Hierarchy.default_config ~ptw in
  let ctrl =
    Controller.create ~params:p ~port:Dma.null_port ~tlb ~issue_cycles:1 ()
  in
  let named = List.map (fun cmd -> (Isa.mnemonic cmd, cmd)) valid_cmds in
  let run name = Controller.execute ctrl (List.assoc name named) in
  List.iter
    (fun name ->
      (* Warm once (first Preload stages the operands the computes use). *)
      run "preload";
      run name;
      check_zero ("Controller.execute " ^ name) (fun () -> run name))
    [ "config_ex"; "config_ld"; "config_st"; "preload"; "compute.preloaded";
      "compute.accumulated" ]

(* A compute run over a 40x50x35 problem in 16-wide blocks: 36
   preload/compute pairs, ragged in every dimension. Executing it on a
   quiet timing-mode controller builds no command and allocates nothing. *)
let test_controller_execute_run () =
  let pt = Gem_vm.Page_table.create ~node_region_base:0x1000_0000 () in
  let ptw =
    Gem_vm.Ptw.create ~page_table:pt
      ~mem_read:(fun ~now ~paddr:_ ~bytes:_ -> now + 20)
      ()
  in
  let tlb = Gem_vm.Hierarchy.create Gem_vm.Hierarchy.default_config ~ptw in
  let ctrl =
    Controller.create ~params:p ~port:Dma.null_port ~tlb ~issue_cycles:1 ()
  in
  let run =
    { Gemmini.Tiled_matmul.cr_m = 40; cr_k = 50; cr_n = 35; cr_i0 = 0; cr_j0 = 0; cr_k0 = 0;
      cr_vi = 3; cr_vj = 3; cr_vk = 4; cr_tk = 4; cr_tj = 3; cr_a_base = 0;
      cr_b_base = 384; cr_accumulate = true; cr_dim = 16 }
  in
  Alcotest.(check bool) "the run fits" true (Gemmini.Tiled_matmul.run_fits p run);
  Controller.execute_run ctrl run;
  check_zero "Controller.execute_run (36 blocks)" (fun () ->
      Controller.execute_run ctrl run)

(* --- the program cursor --------------------------------------------------- *)

module Soc = Gem_soc.Soc
module Runtime = Gem_sw.Runtime

(* The two same-line shapes of a quiet run, on core 0 of a default SoC:
   a bias broadcast (16 rows x 4 B at stride 0) and a depthwise load (16
   rows x 1 B at stride 1). Rows 1-15 are a page run that stays in row
   0's L2 line, charged as one line run; the caller reads the timing back
   from the DMA. *)
let test_same_line_mvin () =
  let soc = Soc.create Gem_soc.Soc_config.default in
  let core = Soc.core soc 0 in
  let dma = Controller.dma (Soc.controller core) in
  let vaddr = Soc.alloc soc core ~bytes:4096 in
  let now = ref 0 in
  List.iter
    (fun (name, stride_bytes, row_bytes) ->
      let mvin () =
        now := !now + 1000;
        ignore (Dma.mvin dma ~now:!now ~vaddr ~stride_bytes ~rows:16 ~row_bytes)
      in
      mvin ();
      check_zero name mvin)
    [ ("quiet same-line mvin, stride 0", 0, 4);
      ("quiet same-line mvin, stride 1", 1, 1) ]

let accel = Runtime.Accel { im2col_on_accel = true }

(* Lowering expands one tile step at a time: the first 1,000 ops of
   full-scale resnet50 cost one step's worth of lowering, not all of
   conv1's list. *)
let test_bounded_lookahead () =
  let soc = Soc.create Gem_soc.Soc_config.default in
  let ops =
    ref
      (Runtime.plan_ops soc (Soc.core soc 0) Gem_dnn.Model_zoo.resnet50
         ~mode:accel ~records:(ref []))
  in
  let bytes =
    measure_alloc (fun () ->
        for _ = 1 to 1_000 do
          match !ops () with
          | Seq.Cons (_, rest) -> ops := rest
          | Seq.Nil -> Alcotest.fail "resnet50 has fewer than 1,000 ops"
        done)
  in
  if bytes >= 1e6 then
    Alcotest.failf "first 1,000 ops allocated %.0f B (bound 1 MB)" bytes

let render_faults (r : Runtime.result) =
  List.map
    (fun fr ->
      Printf.sprintf "%s %s %s" fr.Runtime.fr_action fr.Runtime.fr_layer
        (Gem_sim.Fault.to_string fr.Runtime.fr_fault))
    r.Runtime.r_faults

(* [Runtime.run] executes its guarded program through [Soc.run_parallel];
   [Soc.run_program] over [plan_ops] goes through the [Seq] view. Both
   must drive the SoC to the same cycle, layer records and state. *)
let test_direct_pull_equals_seq () =
  List.iter
    (fun (model : Gem_dnn.Layer.model) ->
      let model = Gem_dnn.Model_zoo.scale_model ~factor:8 model in
      let name = model.Gem_dnn.Layer.model_name in
      let soc_a = Soc.create Gem_soc.Soc_config.default in
      let r = Runtime.run soc_a ~core:0 model ~mode:accel in
      let soc_b = Soc.create Gem_soc.Soc_config.default in
      let records = ref [] in
      let core = Soc.core soc_b 0 in
      let cycles =
        Soc.run_program soc_b core
          (Runtime.plan_ops soc_b core model ~mode:accel ~records)
      in
      Alcotest.(check int) (name ^ " cycles") r.Runtime.r_total_cycles cycles;
      Alcotest.(check bool) (name ^ " layer records") true
        (r.Runtime.r_layers = List.rev !records);
      Alcotest.(check string) (name ^ " snapshot")
        (Gem_util.Jsonx.to_string (Soc.snapshot soc_a))
        (Gem_util.Jsonx.to_string (Soc.snapshot soc_b)))
    Gem_dnn.Model_zoo.all;
  (* Degrade under injection drops the rest of each trapped layer's ops
     as they are pulled, but still runs its fence and markers. The pinned
     fault list and cycles move with any change to the emitted stream or
     to the driver's guard handling. *)
  let soc = Soc.create Gem_soc.Soc_config.default in
  Soc.arm_injection soc ~seed:1 ~rate:0.001;
  let r =
    Runtime.run ~policy:Runtime.Degrade soc ~core:0
      (Gem_dnn.Model_zoo.scale_model ~factor:8 Gem_dnn.Model_zoo.mobilenetv2)
      ~mode:accel
  in
  let faults = render_faults r in
  Alcotest.(check int) "degrade faults" 56 (List.length faults);
  Alcotest.(check string) "degrade fault list"
    "f3402e8f5f49f5240690b1014e289e5c"
    (Digest.to_hex (Digest.string (String.concat "\n" faults)));
  Alcotest.(check int) "degrade cycles" 204961016 r.Runtime.r_total_cycles

let suite =
  [
    Alcotest.test_case "Isa.validate, every constructor" `Quick
      test_isa_validate;
    Alcotest.test_case "Params.validate presets" `Quick test_params_validate;
    Alcotest.test_case "Cache.access hit/miss/writeback" `Quick
      test_cache_access;
    Alcotest.test_case "Tlb.lookup hit" `Quick test_tlb_hit;
    Alcotest.test_case "Mathx.log2_ceil/log2_exact" `Quick test_mathx_log2;
    Alcotest.test_case "timing Controller.execute staging/compute" `Quick
      test_controller_execute;
    Alcotest.test_case "quiet same-line mvin (stride 0 and 1)" `Quick
      test_same_line_mvin;
    Alcotest.test_case "timing Controller.execute_run" `Quick
      test_controller_execute_run;
      Alcotest.test_case "plan_ops: first 1,000 resnet50 ops under 1 MB" `Quick
      test_bounded_lookahead;
    Alcotest.test_case "Runtime.run direct pull == Seq adapter (zoo/8)" `Quick
      test_direct_pull_equals_seq;
  ]
