(* gem_sw: tiling heuristics, kernel-emission invariants, the DRAM-traffic
   model, and the ONNX front end. *)

open Gem_util
module P = Gemmini.Params
module Isa = Gemmini.Isa
module L = Gemmini.Local_addr
module Tiling = Gemmini.Tiled_matmul
module Kernels = Gem_sw.Kernels
module Onnx = Gem_sw.Onnx
module Soc = Gem_soc.Soc
module Soc_config = Gem_soc.Soc_config

(* --- tiling ------------------------------------------------------------------ *)

let qcheck_tiling_fits =
  QCheck2.Test.make ~name:"chosen tiling always fits the memories" ~count:100
    QCheck2.Gen.(triple (int_range 1 4096) (int_range 1 4096) (int_range 1 4096))
    (fun (m, k, n) ->
      let t = Tiling.choose P.default ~m ~k ~n in
      Tiling.fits P.default t)

let qcheck_tiling_maximal =
  QCheck2.Test.make ~name:"chosen tiling is maximal (no dimension can grow)" ~count:100
    QCheck2.Gen.(triple (int_range 1 2048) (int_range 1 2048) (int_range 1 2048))
    (fun (m, k, n) ->
      let t = Tiling.choose P.default ~m ~k ~n in
      let bi, bk, bj = Tiling.blocks P.default ~m ~k ~n in
      let can_grow c cap cur = cur < cap && Tiling.fits P.default c in
      not
        (can_grow { t with Tiling.ti = t.Tiling.ti + 1 } bi t.Tiling.ti
        || can_grow { t with Tiling.tj = t.Tiling.tj + 1 } bj t.Tiling.tj
        || can_grow { t with Tiling.tk = t.Tiling.tk + 1 } bk t.Tiling.tk))

let test_manual_tiling_rejected () =
  Alcotest.check_raises "oversized manual tiling"
    (Invalid_argument
       "Tiled_matmul: a 100x100x100 tile of DIM blocks needs 640000 scratchpad rows and \
        160000 accumulator rows; the instance has 16384 and 1024")
    (fun () ->
      ignore
        (Kernels.matmul_ops P.default
           ~tiling:(Tiling.manual ~ti:100 ~tk:100 ~tj:100)
           ~a:0 ~b:0 ~out:0 ~m:64 ~k:64 ~n:64 ()))

(* --- kernel emission invariants ------------------------------------------------ *)

let insns ops =
  List.filter_map (function Soc.Insn i -> Some i | _ -> None) ops

let qcheck_kernel_invariants =
  QCheck2.Test.make
    ~name:"matmul command stream: hardware limits respected, addresses in range"
    ~count:60
    QCheck2.Gen.(triple (int_range 1 100) (int_range 1 100) (int_range 1 100))
    (fun (m, k, n) ->
      let p = P.default in
      let dim = P.dim p in
      let a = 0x100000 and b = 0x200000 and out = 0x300000 in
      let ops = Kernels.matmul_ops p ~a ~b ~out ~m ~k ~n () in
      let ok = ref true in
      let computes = ref 0 in
      List.iter
        (fun i ->
          match i with
          | Isa.Mvin (mv, _) ->
              if mv.Isa.rows > dim then ok := false;
              if mv.Isa.cols > 4 * dim then ok := false;
              (* highest scratchpad row touched (wide mvins split into
                 adjacent DIM-blocks) stays within the target memory *)
              let nblocks = Mathx.ceil_div mv.Isa.cols dim in
              let top = L.row mv.Isa.local + ((nblocks - 1) * dim) + mv.Isa.rows - 1 in
              let capacity =
                if L.is_accumulator mv.Isa.local then P.acc_rows p else P.sp_rows p
              in
              if top >= capacity then ok := false
          | Isa.Mvout mv ->
              if mv.Isa.rows > dim || mv.Isa.cols > dim then ok := false;
              (* Outputs land inside the C matrix. *)
              if mv.Isa.dram_addr < out || mv.Isa.dram_addr >= out + (m * n) then
                ok := false
          | Isa.Compute_preloaded args | Isa.Compute_accumulated args ->
              incr computes;
              if args.Isa.a_rows > dim || args.Isa.a_cols > dim then ok := false
          | _ -> ())
        (insns ops);
      (* Every DIM-block of the iteration space is computed exactly once. *)
      let blocks_expected =
        Mathx.ceil_div m dim * Mathx.ceil_div k dim * Mathx.ceil_div n dim
      in
      !ok && !computes = blocks_expected)

(* --- traffic model -------------------------------------------------------------- *)

let test_traffic_model_matches_dma () =
  (* The Tiling.dram_traffic_bytes prediction must match the bytes the DMA
     actually moves for a dense matmul (timing mode). *)
  let p = P.default in
  let m, k, n = (256, 320, 192) in
  let soc = Soc.create Soc_config.default in
  let core = Soc.core soc 0 in
  let a = Soc.alloc soc core ~bytes:(m * k) in
  let b = Soc.alloc soc core ~bytes:(k * n) in
  let out = Soc.alloc soc core ~bytes:(m * n) in
  let ops = Kernels.matmul_ops p ~a ~b ~out ~m ~k ~n () @ [ Kernels.fence ] in
  ignore (Soc.run_program soc core (List.to_seq ops));
  let dma = Gemmini.Controller.dma (Soc.controller core) in
  let t = Tiling.choose p ~m ~k ~n in
  let predicted_in = Tiling.dram_traffic_bytes p t ~m ~k ~n - (m * n) in
  Alcotest.(check int) "input traffic" predicted_in (Gemmini.Dma.bytes_in dma);
  Alcotest.(check int) "output traffic" (m * n) (Gemmini.Dma.bytes_out dma)

(* --- ONNX ------------------------------------------------------------------------ *)

let test_onnx_roundtrip () =
  let g = Onnx.simple_cnn in
  match Onnx.parse (Onnx.to_string g) with
  | Ok g' ->
      Alcotest.(check bool) "roundtrip equal" true (g = g');
      Alcotest.(check string) "reprint stable" (Onnx.to_string g) (Onnx.to_string g')
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_onnx_shapes () =
  let shapes = Onnx.infer_shapes Onnx.simple_cnn in
  let get name = List.assoc name shapes in
  Alcotest.(check (array int)) "conv1" [| 1; 8; 8; 8 |] (get "conv1");
  Alcotest.(check (array int)) "pool" [| 1; 4; 4; 8 |] (get "pool");
  Alcotest.(check (array int)) "gap" [| 1; 1; 1; 8 |] (get "gap");
  Alcotest.(check (array int)) "fc" [| 1; 10 |] (get "fc")

let test_onnx_lowering () =
  let model = Onnx.lower Onnx.simple_cnn in
  let classes =
    List.map (fun (_, l) -> Gem_dnn.Layer.class_of l) model.Gem_dnn.Layer.layers
  in
  Alcotest.(check int) "layer count (relu fused, flatten erased)" 7
    (List.length model.Gem_dnn.Layer.layers);
  Alcotest.(check bool) "relu fused into conv1" true
    (match List.assoc "conv1" model.Gem_dnn.Layer.layers with
    | Gem_dnn.Layer.Conv c -> c.Gem_dnn.Layer.relu
    | _ -> false);
  (* resadd back refs: conv2 is -1, act1 (conv1's fused output) is -2 *)
  Alcotest.(check bool) "resadd backrefs" true
    (match List.assoc "add" model.Gem_dnn.Layer.layers with
    | Gem_dnn.Layer.Residual_add { back1 = 1; back2 = 2; _ } -> true
    | _ -> false);
  ignore classes

let test_onnx_validation_errors () =
  let bad_ref =
    {
      Onnx.simple_cnn with
      Onnx.nodes =
        [ { Onnx.n_name = "x"; op = Onnx.Relu; inputs = [ "nope" ]; output = "y" } ];
      g_output = "y";
    }
  in
  (match Onnx.validate bad_ref with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "undefined tensor accepted");
  match Onnx.parse "(graph g (input x (1 2)) (output missing))" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing output accepted"

let test_onnx_depthwise () =
  let g =
    {
      Onnx.g_name = "dw";
      g_input = { Onnx.t_name = "x"; dims = [| 1; 6; 6; 4 |] };
      initializers = [ { Onnx.t_name = "w"; dims = [| 3; 3; 1; 4 |] } ];
      nodes = [ Onnx.conv_node ~name:"dw" ~input:"x" ~weight:"w" ~padding:1 ~group:4 () ];
      g_output = "dw_out";
    }
  in
  let model = Onnx.lower g in
  match List.assoc "dw" model.Gem_dnn.Layer.layers with
  | Gem_dnn.Layer.Conv c ->
      Alcotest.(check bool) "depthwise" true c.Gem_dnn.Layer.depthwise
  | _ -> Alcotest.fail "expected conv"

let suite =
  [
    Alcotest.test_case "manual tiling rejected when oversized" `Quick test_manual_tiling_rejected;
    Alcotest.test_case "traffic model matches DMA counters" `Quick test_traffic_model_matches_dma;
    Alcotest.test_case "onnx print/parse roundtrip" `Quick test_onnx_roundtrip;
    Alcotest.test_case "onnx shape inference" `Quick test_onnx_shapes;
    Alcotest.test_case "onnx lowering (fusion + backrefs)" `Quick test_onnx_lowering;
    Alcotest.test_case "onnx validation errors" `Quick test_onnx_validation_errors;
    Alcotest.test_case "onnx depthwise group" `Quick test_onnx_depthwise;
    QCheck_alcotest.to_alcotest qcheck_tiling_fits;
    QCheck_alcotest.to_alcotest qcheck_tiling_maximal;
    QCheck_alcotest.to_alcotest qcheck_kernel_invariants;
  ]
