(* The LOOP_WS CISC extension: one command executes a whole tiled matmul
   through the hardware sequencer. Checks: bit-exact equivalence with the
   discrete command stream, host-dispatch savings, and encode/decode of
   the new command family. Also: OS-noise failure injection (periodic TLB
   flushes, as context switches would cause — paper Section III-C). *)

open Gem_util
module Soc = Gem_soc.Soc
module Soc_config = Gem_soc.Soc_config
module Kernels = Gem_sw.Kernels
module Isa = Gemmini.Isa

let small_params =
  {
    Gemmini.Params.default with
    mesh_rows = 4;
    mesh_cols = 4;
    sp_capacity_bytes = 4 * 1024;
    sp_banks = 4;
    acc_capacity_bytes = 2 * 1024;
    acc_banks = 2;
  }

let functional_soc () =
  Soc.create
    {
      Soc_config.default with
      functional = true;
      cores = [ { Soc_config.default_core with accel = small_params } ];
    }

let setup_matmul soc core ~m ~k ~n ~seed =
  let rng = Rng.create ~seed in
  let a = Matrix.random rng ~rows:m ~cols:k ~lo:(-16) ~hi:16 in
  let b = Matrix.random rng ~rows:k ~cols:n ~lo:(-8) ~hi:8 in
  let bias = Array.init n (fun _ -> Rng.int_in rng ~lo:(-100) ~hi:100) in
  let a_va = Soc.alloc soc core ~bytes:(m * k) in
  let b_va = Soc.alloc soc core ~bytes:(k * n) in
  let bias_va = Soc.alloc soc core ~bytes:(4 * n) in
  let out_va = Soc.alloc soc core ~bytes:(m * n) in
  Soc.host_write_i8 soc core ~vaddr:a_va (Array.concat (Array.to_list a));
  Soc.host_write_i8 soc core ~vaddr:b_va (Array.concat (Array.to_list b));
  Soc.host_write_i32 soc core ~vaddr:bias_va bias;
  (a_va, b_va, bias_va, out_va)

let qcheck_loop_ws_equivalence =
  let gen =
    QCheck2.Gen.(
      let* m = int_range 1 20 in
      let* k = int_range 1 20 in
      let* n = int_range 1 20 in
      let* seed = int_range 0 100_000 in
      let* with_bias = bool in
      return (m, k, n, seed, with_bias))
  in
  QCheck2.Test.make ~name:"LOOP_WS == discrete command stream (bit-exact)"
    ~count:30 gen (fun (m, k, n, seed, with_bias) ->
      let run use_loop =
        let soc = functional_soc () in
        let core = Soc.core soc 0 in
        let a, b, bias, out = setup_matmul soc core ~m ~k ~n ~seed in
        let bias = if with_bias then Some bias else None in
        let ops =
          (if use_loop then
             Kernels.matmul_loop_ws_ops small_params ?bias
               ~act:Gemmini.Peripheral.Relu ~scale:0.0625 ~a ~b ~out ~m ~k ~n ()
           else
             Kernels.matmul_ops small_params ?bias ~act:Gemmini.Peripheral.Relu
               ~scale:0.0625 ~a ~b ~out ~m ~k ~n ())
          @ [ Kernels.fence ]
        in
        ignore (Soc.run_program soc core (List.to_seq ops));
        Soc.host_read_i8 soc core ~vaddr:out ~n:(m * n)
      in
      run true = run false)

let test_loop_ws_issue_savings () =
  (* With a slow host, the sequencer's 1-cycle micro-ops beat per-command
     RoCC dispatch. *)
  let run use_loop =
    let soc = Soc.create Soc_config.default in
    let core = Soc.core soc 0 in
    Gemmini.Controller.set_issue_cycles (Soc.controller core) 20;
    let a = Soc.alloc soc core ~bytes:(256 * 256) in
    let b = Soc.alloc soc core ~bytes:(256 * 256) in
    let out = Soc.alloc soc core ~bytes:(256 * 256) in
    let p = Gemmini.Params.default in
    let ops =
      (if use_loop then Kernels.matmul_loop_ws_ops p ~a ~b ~out ~m:256 ~k:256 ~n:256 ()
       else Kernels.matmul_ops p ~a ~b ~out ~m:256 ~k:256 ~n:256 ())
      @ [ Kernels.fence ]
    in
    let cycles = Soc.run_program soc core (List.to_seq ops) in
    let s = Gemmini.Controller.stats (Soc.controller core) in
    (cycles, s)
  in
  let loop_cycles, loop_stats = run true in
  let discrete_cycles, discrete_stats = run false in
  Alcotest.(check bool) "few host dispatches" true
    (loop_stats.Gemmini.Controller.insns < 10);
  Alcotest.(check bool) "micro-ops expanded" true
    (loop_stats.Gemmini.Controller.loop_micro_ops > 1000);
  Alcotest.(check int) "same compute work" discrete_stats.Gemmini.Controller.macs
    loop_stats.Gemmini.Controller.macs;
  Alcotest.(check bool)
    (Printf.sprintf "loop faster on a slow host (%d < %d)" loop_cycles discrete_cycles)
    true
    (loop_cycles < discrete_cycles)

let test_loop_ws_requires_config () =
  let soc = Soc.create Soc_config.default in
  let core = Soc.core soc 0 in
  match
    Gemmini.Controller.execute (Soc.controller core)
      (Isa.Loop_ws { Isa.lw_a_stride = 1; lw_b_stride = 1; lw_c_stride = 1; lw_scale = 1.0 })
  with
  | () -> Alcotest.fail "unconfigured loop accepted"
  | exception Gem_sim.Fault.Trap f ->
      Alcotest.(check string)
        "trap cause" "LOOP_WS without LOOP_WS_CONFIG_BOUNDS"
        (Gem_sim.Fault.cause_detail f.Gem_sim.Fault.cause)

let test_loop_ws_encoding () =
  List.iter
    (fun cmd ->
      match Isa.decode (Isa.encode cmd) with
      | Ok cmd' ->
          if not (Isa.equal cmd cmd') then
            Alcotest.failf "roundtrip: %s vs %s" (Isa.to_string cmd) (Isa.to_string cmd')
      | Error e -> Alcotest.failf "decode: %s" e)
    [
      Isa.Loop_ws_bounds
        { Isa.lw_m = 1024; lw_k = 768; lw_n = 3072; lw_has_bias = true; lw_activation = Gemmini.Peripheral.Relu };
      Isa.Loop_ws_addrs { Isa.lw_a = 0x1234_5000; lw_b = 0xFEDC_0000 };
      Isa.Loop_ws_outs { Isa.lw_bias = 0x10_0000; lw_c = 0x20_0000 };
      Isa.Loop_ws { Isa.lw_a_stride = 768; lw_b_stride = 3072; lw_c_stride = 3072; lw_scale = 0.0625 };
    ]

(* --- pinned timing ------------------------------------------------------------ *)

(* Quiet-run cycles, controller counters and a snapshot digest of LOOP_WS
   matmuls, taken before the sequencer and the software kernel shared one
   step generator: the merge must not move a cycle, a counter or a state
   byte. Per preset: a multi-tile shape in whole DIM blocks, a small ragged
   one and a multi-tile ragged one, each plain, with bias, with ReLU and
   scale 1/16, and with both. *)

let timing_soc p =
  Soc.create
    { Soc_config.default with cores = [ { Soc_config.default_core with accel = p } ] }

let stats_line soc core cycles =
  let s = Gemmini.Controller.stats (Soc.controller core) in
  Printf.sprintf "%d insns=%d micro=%d ld=%d st=%d ex=%d macs=%d host=%d fl=%d busy=%d/%d/%d %s"
    cycles s.Gemmini.Controller.insns s.loop_micro_ops s.loads s.stores s.computes s.macs
    s.host_cycles s.flushes s.ld_busy s.ex_busy s.st_busy
    (Digest.to_hex (Digest.string (Jsonx.to_string (Soc.snapshot soc))))

let pinned_run p ~m ~k ~n ~bias ~relu =
  let soc = timing_soc p in
  let core = Soc.core soc 0 in
  let a = Soc.alloc soc core ~bytes:(m * k) in
  let b = Soc.alloc soc core ~bytes:(k * n) in
  let bias_va = Soc.alloc soc core ~bytes:(4 * n) in
  let out = Soc.alloc soc core ~bytes:(m * n) in
  let bias = if bias then Some bias_va else None in
  let act, scale = if relu then (Gemmini.Peripheral.Relu, 0.0625) else (Gemmini.Peripheral.No_activation, 1.0) in
  let ops = Kernels.matmul_loop_ws_ops p ?bias ~act ~scale ~a ~b ~out ~m ~k ~n () @ [ Kernels.fence ] in
  stats_line soc core (Soc.run_program soc core (List.to_seq ops))

let pinned_cases =
  let shapes dim big = [ (4 * dim, 8 * dim, 4 * dim); (dim + 3, (2 * dim) - 1, dim + 5); big ] in
  List.concat_map
    (fun (name, p, big) ->
      let dim = Gemmini.Params.dim p in
      List.concat_map
        (fun (m, k, n) ->
          List.map
            (fun (bias, relu) ->
              ( Printf.sprintf "%s %dx%dx%d%s%s" name m k n
                  (if bias then " bias" else "") (if relu then " relu/16" else ""),
                fun () -> pinned_run p ~m ~k ~n ~bias ~relu ))
            [ (false, false); (true, false); (false, true); (true, true) ])
        (shapes dim big))
    [ ("small", small_params, (31, 61, 29));
      ("default", Gemmini.Params.default, (203, 601, 197));
      ("edge", Gemmini.Params.edge, (101, 299, 99)) ]

(* Zero strides: every row of A, B and C aliases row 0. *)
let zero_stride_run () =
  let soc = timing_soc small_params in
  let core = Soc.core soc 0 in
  let buf = Soc.alloc soc core ~bytes:4096 in
  let ops =
    List.map (fun i -> Soc.Insn i)
      [ Isa.Loop_ws_bounds
          { Isa.lw_m = 9; lw_k = 13; lw_n = 7; lw_has_bias = true; lw_activation = Gemmini.Peripheral.Relu };
        Isa.Loop_ws_addrs { Isa.lw_a = buf; lw_b = buf + 1024 };
        Isa.Loop_ws_outs { Isa.lw_bias = buf + 2048; lw_c = buf + 3072 };
        Isa.Loop_ws { Isa.lw_a_stride = 0; lw_b_stride = 0; lw_c_stride = 0; lw_scale = 0.5 } ]
    @ [ Kernels.fence ]
  in
  stats_line soc core (Soc.run_program soc core (List.to_seq ops))

let pinned =
  [
    ("small 16x32x16",
     "1911 insns=5 micro=293 ld=16 st=16 ex=128 macs=8192 host=0 fl=0 busy=518/1024/96 6e440a8dacb1166cd8a2b41d7576e191");
    ("small 16x32x16 bias",
     "2071 insns=5 micro=309 ld=32 st=16 ex=128 macs=8192 host=0 fl=0 busy=678/1024/96 475661b2dbc1790e6ca0430bd29a69f5");
    ("small 16x32x16 relu/16",
     "1911 insns=5 micro=293 ld=16 st=16 ex=128 macs=8192 host=0 fl=0 busy=518/1024/96 9dd81429b87a3b660b9493a984e01662");
    ("small 16x32x16 bias relu/16",
     "2071 insns=5 micro=309 ld=32 st=16 ex=128 macs=8192 host=0 fl=0 busy=678/1024/96 a001502b3edc053d8e7c6ae056f71452");
    ("small 7x7x9",
     "768 insns=5 micro=39 ld=4 st=6 ex=12 macs=441 host=0 fl=0 busy=411/90/53 794b0a8481f37ba2c66949c2078655d3");
    ("small 7x7x9 bias",
     "835 insns=5 micro=45 ld=10 st=6 ex=12 macs=441 host=0 fl=0 busy=478/90/53 27654aa1c911835c9931a845f0516249");
    ("small 7x7x9 relu/16",
     "768 insns=5 micro=39 ld=4 st=6 ex=12 macs=441 host=0 fl=0 busy=411/90/53 949a28b57868fad8e52b98c36dafdb99");
    ("small 7x7x9 bias relu/16",
     "835 insns=5 micro=45 ld=10 st=6 ex=12 macs=441 host=0 fl=0 busy=478/90/53 a7b99f5cec51a8d6b3a27ad84634e078");
    ("small 31x61x29",
     "10792 insns=5 micro=2293 ld=176 st=64 ex=1024 macs=54839 host=0 fl=0 busy=1703/8064/280 ef2e08a551d047cfde44698ee8ff5dba");
    ("small 31x61x29 bias",
     "11320 insns=5 micro=2357 ld=240 st=64 ex=1024 macs=54839 host=0 fl=0 busy=2206/8064/280 41e6d9cece30bd062abb9df19b063f9c");
    ("small 31x61x29 relu/16",
     "10792 insns=5 micro=2293 ld=176 st=64 ex=1024 macs=54839 host=0 fl=0 busy=1703/8064/280 8bed67c64bd8c1adb8d8188b27623eeb");
    ("small 31x61x29 bias relu/16",
     "11320 insns=5 micro=2357 ld=240 st=64 ex=1024 macs=54839 host=0 fl=0 busy=2206/8064/280 6fd9a712ef3bb61cec4ecd84f065c871");
    ("default 64x128x64",
     "5786 insns=5 micro=293 ld=16 st=16 ex=128 macs=524288 host=0 fl=0 busy=2502/2560/544 5842f35e203f857b241eea86c3673e97");
    ("default 64x128x64 bias",
     "7866 insns=5 micro=309 ld=32 st=16 ex=128 macs=524288 host=0 fl=0 busy=4582/2560/544 c698cdeea50bd3503780f097f795b191");
    ("default 64x128x64 relu/16",
     "5786 insns=5 micro=293 ld=16 st=16 ex=128 macs=524288 host=0 fl=0 busy=2502/2560/544 ea3aa7c40a441f29c6f975478cd03788");
    ("default 64x128x64 bias relu/16",
     "7866 insns=5 micro=309 ld=32 st=16 ex=128 macs=524288 host=0 fl=0 busy=4582/2560/544 f642b835713aed6954ef322951f31a77");
    ("default 19x31x21",
     "1029 insns=5 micro=29 ld=4 st=4 ex=8 macs=12369 host=0 fl=0 busy=559/108/89 139260e433ee89396939a19d002b2a81");
    ("default 19x31x21 bias",
     "1270 insns=5 micro=33 ld=8 st=4 ex=8 macs=12369 host=0 fl=0 busy=800/108/89 586025e8dae9e012ba6305d5daac62f1");
    ("default 19x31x21 relu/16",
     "1029 insns=5 micro=29 ld=4 st=4 ex=8 macs=12369 host=0 fl=0 busy=559/108/89 da31c55edfb1b1ca503584df6618e4fe");
    ("default 19x31x21 bias relu/16",
     "1270 insns=5 micro=33 ld=8 st=4 ex=8 macs=12369 host=0 fl=0 busy=800/108/89 93dc366a7c52ad178813a19caf403671");
    ("default 203x601x197",
     "200091 insns=5 micro=13582 ld=564 st=169 ex=6422 macs=24034591 host=0 fl=0 busy=68922/125970/6365 d27dd2db70d6d1346d0e54dfe85a6c8f");
    ("default 203x601x197 bias",
     "220035 insns=5 micro=13751 ld=733 st=169 ex=6422 macs=24034591 host=0 fl=0 busy=88866/125970/6365 2cb30afdc575ebfcdec2fc0ae23d0d75");
    ("default 203x601x197 relu/16",
     "200091 insns=5 micro=13582 ld=564 st=169 ex=6422 macs=24034591 host=0 fl=0 busy=68922/125970/6365 2fb53607d908866d854230002c2452e7");
    ("default 203x601x197 bias relu/16",
     "220035 insns=5 micro=13751 ld=733 st=169 ex=6422 macs=24034591 host=0 fl=0 busy=88866/125970/6365 498654875f81d0a66adea55f9c4155fa");
    ("edge 32x64x32",
     "2917 insns=5 micro=293 ld=16 st=16 ex=128 macs=65536 host=0 fl=0 busy=902/1536/160 3a18de60e00975bb0d94d207b3f60aca");
    ("edge 32x64x32 bias",
     "3461 insns=5 micro=309 ld=32 st=16 ex=128 macs=65536 host=0 fl=0 busy=1446/1536/160 affd02be8ff0358684084e66fd74d22d");
    ("edge 32x64x32 relu/16",
     "2917 insns=5 micro=293 ld=16 st=16 ex=128 macs=65536 host=0 fl=0 busy=902/1536/160 0e3b5b10863204e166023df9de7f5731");
    ("edge 32x64x32 bias relu/16",
     "3461 insns=5 micro=309 ld=32 st=16 ex=128 macs=65536 host=0 fl=0 busy=1446/1536/160 9f05994e8ff6e556ce69cc4d2df29cf9");
    ("edge 11x15x13",
     "841 insns=5 micro=29 ld=4 st=4 ex=8 macs=2145 host=0 fl=0 busy=442/76/54 658178b042f729156e6488194130a7ad");
    ("edge 11x15x13 bias",
     "950 insns=5 micro=33 ld=8 st=4 ex=8 macs=2145 host=0 fl=0 busy=551/76/54 d46a9a4517732f454c620b53d8cf5602");
    ("edge 11x15x13 relu/16",
     "841 insns=5 micro=29 ld=4 st=4 ex=8 macs=2145 host=0 fl=0 busy=442/76/54 2ac80c1f80faa71bea7710ba47fdaaca");
    ("edge 11x15x13 bias relu/16",
     "950 insns=5 micro=33 ld=8 st=4 ex=8 macs=2145 host=0 fl=0 busy=551/76/54 3e621f80abf6f99454feaf9bb3acabb5");
    ("edge 101x299x99",
     "95702 insns=5 micro=13582 ld=564 st=169 ex=6422 macs=2989701 host=0 fl=0 busy=17466/75582/2010 490844aa11fc709bd49de809fb287302");
    ("edge 101x299x99 bias",
     "100637 insns=5 micro=13751 ld=733 st=169 ex=6422 macs=2989701 host=0 fl=0 busy=22523/75582/1916 436d6c1f72f1797539570d333f5e5136");
    ("edge 101x299x99 relu/16",
     "95702 insns=5 micro=13582 ld=564 st=169 ex=6422 macs=2989701 host=0 fl=0 busy=17466/75582/2010 21b66dfbf368d88acbf3176ec91ee168");
    ("edge 101x299x99 bias relu/16",
     "100637 insns=5 micro=13751 ld=733 st=169 ex=6422 macs=2989701 host=0 fl=0 busy=22523/75582/1916 f2d06e6ba2ab6422c1f926643ad39825");
    ("small zero strides",
     "831 insns=5 micro=72 ld=13 st=6 ex=24 macs=819 host=0 fl=0 busy=425/168/20 1c7af23e2452e52114a9f3de93a7a4cb")
  ]

let test_loop_ws_pinned () =
  let got =
    List.map (fun (label, run) -> (label, run ())) pinned_cases
    @ [ ("small zero strides", zero_stride_run ()) ]
  in
  Alcotest.(check (list (pair string string))) "cycles, stats, snapshot digest" pinned got

(* --- OS-noise failure injection ----------------------------------------------- *)

let test_context_switch_noise () =
  (* Periodic TLB flushes (what a context switch does to the accelerator's
     translation state) must not affect results, only time. *)
  let run ~flush_every =
    let soc = functional_soc () in
    let core = Soc.core soc 0 in
    let a, b, bias, out = setup_matmul soc core ~m:12 ~k:9 ~n:10 ~seed:33 in
    ignore bias;
    let base_ops =
      Kernels.matmul_ops small_params ~a ~b ~out ~m:12 ~k:9 ~n:10 ()
      @ [ Kernels.fence ]
    in
    let ops =
      match flush_every with
      | None -> base_ops
      | Some n ->
          List.concat
            (List.mapi
               (fun i op -> if i mod n = n - 1 then [ op; Kernels.flush_tlb ] else [ op ])
               base_ops)
    in
    let cycles = Soc.run_program soc core (List.to_seq ops) in
    (Soc.host_read_i8 soc core ~vaddr:out ~n:120, cycles)
  in
  let clean, t_clean = run ~flush_every:None in
  let noisy, t_noisy = run ~flush_every:(Some 5) in
  Alcotest.(check (array int)) "results survive context switches" clean noisy;
  Alcotest.(check bool) "flushes cost time" true (t_noisy > t_clean)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_loop_ws_equivalence;
    Alcotest.test_case "LOOP_WS saves host dispatches" `Quick test_loop_ws_issue_savings;
    Alcotest.test_case "LOOP_WS requires configuration" `Quick test_loop_ws_requires_config;
    Alcotest.test_case "LOOP_WS command encoding" `Quick test_loop_ws_encoding;
    Alcotest.test_case "LOOP_WS timing and state pinned" `Quick test_loop_ws_pinned;
    Alcotest.test_case "context-switch TLB flush injection" `Quick test_context_switch_noise;
  ]
