(* Cycle-accurate spatial-array tests: both dataflows, both extremes of the
   two-level hierarchy (fully pipelined TPU-like and fully combinational
   NVDLA-like tiles), against the saturating reference matrix product. *)

open Gem_util
module P = Gemmini.Params
module Mesh = Gemmini.Mesh

let check_matrix msg expected actual =
  if not (Matrix.equal expected actual) then
    Alcotest.failf "%s:\nexpected:\n%sgot:\n%s" msg (Matrix.to_string expected)
      (Matrix.to_string actual)

let mesh_configs =
  [
    ("pipelined 4x4 (1x1 tiles)", { P.default with mesh_rows = 4; mesh_cols = 4; tile_rows = 1; tile_cols = 1 });
    ("combinational 4x4 (one tile)", { P.default with mesh_rows = 1; mesh_cols = 1; tile_rows = 4; tile_cols = 4 });
    ("mixed 4x4 (2x2 mesh of 2x2 tiles)", { P.default with mesh_rows = 2; mesh_cols = 2; tile_rows = 2; tile_cols = 2 });
    ("rect tiles 4x4 (4x1 tiles)", { P.default with mesh_rows = 1; mesh_cols = 4; tile_rows = 4; tile_cols = 1 });
  ]

let run_one params ~dataflow ~i ~k ~j ~seed ~with_bias () =
  let rng = Rng.create ~seed in
  let a = Matrix.random rng ~rows:i ~cols:k ~lo:(-128) ~hi:127 in
  let b = Matrix.random rng ~rows:k ~cols:j ~lo:(-128) ~hi:127 in
  let d =
    if with_bias then Some (Matrix.random rng ~rows:i ~cols:j ~lo:(-100) ~hi:100)
    else None
  in
  let mesh = Mesh.create params in
  let result = Mesh.run_matmul mesh ~dataflow ~a ~b ?d () in
  let expected =
    let prod = Matrix.mul_sat32 a b in
    match d with None -> prod | Some d -> Matrix.add_sat32 prod d
  in
  check_matrix "matmul result" expected result.Mesh.out;
  (* The closed-form timing model must agree with the measured schedule. *)
  Alcotest.(check int)
    "closed-form cycles"
    (Mesh.block_cycles params ~dataflow ~rows:i ~k ~cols:j ~preload:true)
    result.Mesh.cycles

let matmul_cases =
  List.concat_map
    (fun (name, params) ->
      List.concat_map
        (fun dataflow ->
          let df_name = match dataflow with `WS -> "WS" | `OS -> "OS" in
          [
            Alcotest.test_case
              (Printf.sprintf "%s %s full block" name df_name)
              `Quick
              (run_one params ~dataflow ~i:4 ~k:4 ~j:4 ~seed:1 ~with_bias:false);
            Alcotest.test_case
              (Printf.sprintf "%s %s tall A" name df_name)
              `Quick
              (run_one params ~dataflow ~i:(match dataflow with `WS -> 9 | `OS -> 3)
                 ~k:4 ~j:4 ~seed:2 ~with_bias:false);
            Alcotest.test_case
              (Printf.sprintf "%s %s ragged" name df_name)
              `Quick
              (run_one params ~dataflow ~i:3 ~k:2 ~j:3 ~seed:3 ~with_bias:false);
            Alcotest.test_case
              (Printf.sprintf "%s %s with bias" name df_name)
              `Quick
              (run_one params ~dataflow ~i:4 ~k:4 ~j:4 ~seed:4 ~with_bias:true);
          ])
        [ `WS; `OS ])
    mesh_configs

let test_saturation () =
  (* All-max int8 inputs with a deep K should clamp at int32 max rather
     than wrap. Use a 4x4 array, K=4: 127*127*4 fits, so scale up with
     repeated accumulate via bias instead: bias near int32 max. *)
  let params = { P.default with mesh_rows = 4; mesh_cols = 4 } in
  let mesh = Mesh.create params in
  let a = Matrix.init ~rows:1 ~cols:4 (fun _ _ -> 127) in
  let b = Matrix.init ~rows:4 ~cols:4 (fun _ _ -> 127) in
  let d = Matrix.init ~rows:1 ~cols:4 (fun _ _ -> Fixed.int32_max - 10) in
  let result = Mesh.run_matmul mesh ~dataflow:`WS ~a ~b ~d () in
  Alcotest.(check int) "saturated" Fixed.int32_max (Matrix.get result.Mesh.out 0 0)

let test_ws_weights_resident () =
  (* Running twice without re-preloading is the WS dataflow's reuse case;
     block_cycles ~preload:false must be cheaper by exactly dim rows. *)
  let params = { P.default with mesh_rows = 4; mesh_cols = 4 } in
  let with_pl = Mesh.block_cycles params ~dataflow:`WS ~rows:4 ~k:4 ~cols:4 ~preload:true in
  let without = Mesh.block_cycles params ~dataflow:`WS ~rows:4 ~k:4 ~cols:4 ~preload:false in
  Alcotest.(check int) "preload cost" 4 (with_pl - without)

let test_pipelining_cost () =
  (* Fully pipelined vs fully combinational: same MACs, different skew. The
     combinational tile has no inter-tile registers, so its schedule is
     shorter in cycles (it pays in clock period instead, cf. Fig. 3). *)
  let pipelined = P.tpu_like ~pes:16 in
  let combinational = P.nvdla_like ~pes:16 in
  let c_pipe = Mesh.block_cycles pipelined ~dataflow:`WS ~rows:4 ~k:4 ~cols:4 ~preload:true in
  let c_comb = Mesh.block_cycles combinational ~dataflow:`WS ~rows:4 ~k:4 ~cols:4 ~preload:true in
  Alcotest.(check bool) "combinational has fewer skew cycles" true (c_comb < c_pipe)

let qcheck_matmul =
  let gen =
    QCheck2.Gen.(
      let* i = int_range 1 12 in
      let* k = int_range 1 4 in
      let* j = int_range 1 4 in
      let* seed = int_range 0 10_000 in
      let* df = oneofl [ `WS; `OS ] in
      let* cfg = int_range 0 (List.length mesh_configs - 1) in
      return (i, k, j, seed, df, cfg))
  in
  QCheck2.Test.make ~name:"mesh matmul == saturating reference (all configs)"
    ~count:60 gen (fun (i, k, j, seed, df, cfg) ->
      let _, params = List.nth mesh_configs cfg in
      let i = match df with `WS -> i | `OS -> min i 4 in
      run_one params ~dataflow:df ~i ~k ~j ~seed ~with_bias:(seed mod 2 = 0) ();
      true)

(* The two dataflows are different schedules of the same arithmetic: for
   any operands that fit a single block in both (OS limits output rows to
   the array height), WS and OS must produce bit-identical results. *)
let qcheck_ws_os_equivalence =
  let gen =
    QCheck2.Gen.(
      let* i = int_range 1 4 in
      let* k = int_range 1 4 in
      let* j = int_range 1 4 in
      let* seed = int_range 0 1_000_000 in
      let* with_bias = bool in
      let* cfg = int_range 0 (List.length mesh_configs - 1) in
      return (i, k, j, seed, with_bias, cfg))
  in
  QCheck2.Test.make ~name:"WS == OS on shared-domain blocks (all configs)"
    ~count:100 gen (fun (i, k, j, seed, with_bias, cfg) ->
      let _, params = List.nth mesh_configs cfg in
      let rng = Rng.create ~seed in
      let a = Matrix.random rng ~rows:i ~cols:k ~lo:(-128) ~hi:127 in
      let b = Matrix.random rng ~rows:k ~cols:j ~lo:(-128) ~hi:127 in
      let d =
        if with_bias then
          Some (Matrix.random rng ~rows:i ~cols:j ~lo:(-128) ~hi:127)
        else None
      in
      let run dataflow =
        let mesh = Mesh.create params in
        (Mesh.run_matmul mesh ~dataflow ~a ~b ?d ()).Mesh.out
      in
      Matrix.equal (run `WS) (run `OS))

(* Negative paths of the local memories: structured traps, never silent
   corruption or an unstructured exception. *)
let sp4 () =
  Gemmini.Scratchpad.create ~functional:true
    { P.default with mesh_rows = 4; mesh_cols = 4 }

let check_trap name expect f =
  match f () with
  | _ -> Alcotest.failf "%s: no trap raised" name
  | exception Gem_sim.Fault.Trap fault ->
      Alcotest.(check string)
        name expect
        (Gem_sim.Fault.cause_label fault.Gem_sim.Fault.cause)

let test_scratchpad_oob () =
  let sp = sp4 () in
  let last = Gemmini.Scratchpad.sp_rows sp - 1 in
  check_trap "read_block past the end" "local-oob" (fun () ->
      Gemmini.Scratchpad.read_block sp
        (Gemmini.Local_addr.scratchpad ~row:last)
        ~rows:2 ~cols:4);
  check_trap "write_block past the end" "local-oob" (fun () ->
      Gemmini.Scratchpad.write_block sp
        (Gemmini.Local_addr.scratchpad ~row:last)
        (Matrix.init ~rows:2 ~cols:4 (fun _ _ -> 1)));
  let acc_last = Gemmini.Scratchpad.acc_rows sp - 1 in
  check_trap "accumulator read_block past the end" "local-oob" (fun () ->
      Gemmini.Scratchpad.read_block sp
        (Gemmini.Local_addr.accumulator ~row:acc_last ())
        ~rows:2 ~cols:4)

let test_scratchpad_illegal () =
  let sp = sp4 () in
  check_trap "garbage dereference" "illegal-inst" (fun () ->
      Gemmini.Scratchpad.read_row sp Gemmini.Local_addr.garbage ~offset:0);
  check_trap "accumulate flag on a scratchpad address" "illegal-inst"
    (fun () ->
      Gemmini.Scratchpad.write_row sp
        (Gemmini.Local_addr.of_bits (0x4000_0000 lor 3))
        ~offset:0 (Array.make 4 1))

let suite =
  matmul_cases
  @ [
      Alcotest.test_case "int32 saturation in accumulation" `Quick test_saturation;
      Alcotest.test_case "WS preload cost is dim rows" `Quick test_ws_weights_resident;
      Alcotest.test_case "combinational tiles shorten schedule" `Quick test_pipelining_cost;
      QCheck_alcotest.to_alcotest qcheck_matmul;
      QCheck_alcotest.to_alcotest qcheck_ws_os_equivalence;
      Alcotest.test_case "scratchpad blocks trap out-of-bounds" `Quick
        test_scratchpad_oob;
      Alcotest.test_case "scratchpad traps garbage / misplaced flags" `Quick
        test_scratchpad_illegal;
    ]
