(* End-to-end functional tests: real int8 data through the virtual-memory
   DMA, scratchpad, and cycle-accurate mesh, against the pure-host golden
   model. These are the tests that prove the whole stack — ISA, controller,
   dataflows, tiling, kernels — computes the right numbers. *)

open Gem_util
module Soc = Gem_soc.Soc
module Soc_config = Gem_soc.Soc_config
module Runtime = Gem_sw.Runtime
module Kernels = Gem_sw.Kernels
module Lower = Gem_sw.Lower
module Layer = Gem_dnn.Layer

(* A small accelerator so the tests exercise multi-tile loops. *)
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

let check_tensor msg expected actual =
  if not (Tensor.equal expected actual) then begin
    let show t =
      let d = Tensor.data t in
      let n = min 64 (Array.length d) in
      String.concat " " (List.init n (fun i -> string_of_int d.(i)))
    in
    Alcotest.failf "%s:\nexpected: %s\ngot:      %s" msg (show expected) (show actual)
  end

(* --- raw kernel matmul vs reference ---------------------------------------- *)

let run_matmul_kernel ~m ~k ~n ~seed ~with_bias () =
  let soc = functional_soc () in
  let core = Soc.core soc 0 in
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
  let ops =
    Kernels.matmul_ops small_params
      ?bias:(if with_bias then Some bias_va else None)
      ~act:Gemmini.Peripheral.Relu ~scale:0.0625 ~a:a_va ~b:b_va ~out:out_va ~m
      ~k ~n ()
    @ [ Kernels.fence ]
  in
  ignore (Soc.run_program soc core (List.to_seq ops));
  let got = Soc.host_read_i8 soc core ~vaddr:out_va ~n:(m * n) in
  (* Golden: int32 saturating product + bias, scale, relu. *)
  let prod = Matrix.mul_sat32 a b in
  let expected =
    Array.init (m * n) (fun i ->
        let r = i / n and c = i mod n in
        let v =
          Fixed.sat32 (Matrix.get prod r c + if with_bias then bias.(c) else 0)
        in
        Gemmini.Peripheral.apply_activation Gemmini.Peripheral.Relu
          (Gemmini.Peripheral.scale_to Gemmini.Dtype.Int8 ~scale:0.0625 v))
  in
  Alcotest.(check (array int)) "matmul result" expected got

let qcheck_kernel_matmul =
  let gen =
    QCheck2.Gen.(
      let* m = int_range 1 24 in
      let* k = int_range 1 24 in
      let* n = int_range 1 24 in
      let* seed = int_range 0 100_000 in
      let* with_bias = bool in
      return (m, k, n, seed, with_bias))
  in
  QCheck2.Test.make
    ~name:"tiled kernel matmul == golden (arbitrary sizes, multi-tile)"
    ~count:40 gen (fun (m, k, n, seed, with_bias) ->
      run_matmul_kernel ~m ~k ~n ~seed ~with_bias ();
      true)

(* --- residual addition ------------------------------------------------------ *)

let test_resadd () =
  let soc = functional_soc () in
  let core = Soc.core soc 0 in
  let elems = 333 in
  let rng = Rng.create ~seed:5 in
  let x = Array.init elems (fun _ -> Rng.int_in rng ~lo:(-128) ~hi:127) in
  let y = Array.init elems (fun _ -> Rng.int_in rng ~lo:(-128) ~hi:127) in
  let x_va = Soc.alloc soc core ~bytes:(elems + 64) in
  let y_va = Soc.alloc soc core ~bytes:(elems + 64) in
  let out_va = Soc.alloc soc core ~bytes:(elems + 64) in
  Soc.host_write_i8 soc core ~vaddr:x_va x;
  Soc.host_write_i8 soc core ~vaddr:y_va y;
  let ops =
    Kernels.ops
      (Kernels.resadd_steps small_params ~x:x_va ~y:y_va ~out:out_va ~elems ())
    @ [ Kernels.fence ]
  in
  ignore (Soc.run_program soc core (List.to_seq ops));
  let got = Soc.host_read_i8 soc core ~vaddr:out_va ~n:elems in
  let expected = Array.init elems (fun i -> Fixed.sat8 (x.(i) + y.(i))) in
  Alcotest.(check (array int)) "resadd" expected got

(* --- whole-network functional inference -------------------------------------- *)

let tiny_cnn : Layer.model =
  let conv ~h ~in_ch ~out_ch ~relu =
    Layer.Conv
      {
        Layer.in_h = h;
        in_w = h;
        in_ch;
        out_ch;
        kernel = 3;
        stride = 1;
        padding = 1;
        relu;
        depthwise = false;
      }
  in
  {
    Layer.model_name = "tiny-cnn";
    input_desc = "8x8x3";
    layers =
      [
        ("conv1", conv ~h:8 ~in_ch:3 ~out_ch:8 ~relu:true);
        ("conv2", conv ~h:8 ~in_ch:8 ~out_ch:8 ~relu:false);
        ( "add",
          Layer.Residual_add { r_h = 8; r_w = 8; r_ch = 8; back1 = 1; back2 = 2 } );
        ( "pool",
          Layer.Max_pool
            { p_in_h = 8; p_in_w = 8; p_ch = 8; window = 2; p_stride = 2; p_padding = 0 } );
        ("gap", Layer.Global_avg_pool { g_h = 4; g_w = 4; g_ch = 8 });
        ("fc", Layer.Matmul { m = 1; k = 8; n = 10; relu = false; count = 1 });
      ];
  }

let tiny_dw : Layer.model =
  {
    Layer.model_name = "tiny-dw";
    input_desc = "6x6x4";
    layers =
      [
        ( "dw",
          Layer.Conv
            {
              Layer.in_h = 6;
              in_w = 6;
              in_ch = 4;
              out_ch = 4;
              kernel = 3;
              stride = 1;
              padding = 1;
              relu = true;
              depthwise = true;
            } );
        ( "pw",
          Layer.Conv
            {
              Layer.in_h = 6;
              in_w = 6;
              in_ch = 4;
              out_ch = 6;
              kernel = 1;
              stride = 1;
              padding = 0;
              relu = false;
              depthwise = false;
            } );
      ];
  }

let run_net_test model ~input_shape ~seed () =
  let soc = functional_soc () in
  let rng = Rng.create ~seed:(seed + 7) in
  let input = Tensor.random rng input_shape ~lo:(-32) ~hi:32 in
  let expected = Runtime.reference_inference model ~input ~seed in
  let got = Runtime.run_functional soc ~core:0 model ~input ~seed in
  check_tensor (model.Layer.model_name ^ " inference") expected got

let test_strided_conv () =
  let model : Layer.model =
    {
      Layer.model_name = "strided";
      input_desc = "9x9x2";
      layers =
        [
          ( "conv",
            Layer.Conv
              {
                Layer.in_h = 9;
                in_w = 9;
                in_ch = 2;
                out_ch = 5;
                kernel = 3;
                stride = 2;
                padding = 1;
                relu = true;
                depthwise = false;
              } );
        ];
    }
  in
  run_net_test model ~input_shape:[| 1; 9; 9; 2 |] ~seed:31 ()

(* --- lowering equivalence ------------------------------------------------------ *)

(* Pinned digests of the op streams the runtime emits for every zoo
   network at scale 8: a change to the emission path must reproduce the
   identical op sequence. [plan_ops] streams hash each op's rendering (markers are
   opaque closures, so they hash by kind); the guarded [Runtime.run]
   program is observed through the span events it emits on a live
   engine — network/layer/kernel markers and every spanned command, with
   their time stamps. *)

let op_line = function
  | Soc.Insn i -> Gemmini.Isa.to_string i
  | Soc.Compute_run _ -> Alcotest.fail "plan_ops yields a compute run's commands"
  | Soc.Host_work { cycles; tag } -> Printf.sprintf "host %d %s" cycles tag
  | Soc.Marker _ -> "marker"

let chain h line = Digest.string (h ^ line)

let stream_digest ops =
  Digest.to_hex (Seq.fold_left (fun h op -> chain h (op_line op)) "" ops)

let plan_digest ?(config = Soc_config.default) model ~mode =
  let soc = Soc.create config in
  stream_digest
    (Runtime.plan_ops soc (Soc.core soc 0) model ~mode ~records:(ref []))

(* An instance with neither a pooling unit nor an im2col block: max-pool
   falls back to the host, and an on-accelerator im2col request falls
   back to a host im2col pass. *)
let bare_config =
  let core = Soc_config.default_core in
  {
    Soc_config.default with
    cores =
      [
        {
          core with
          Soc_config.accel =
            {
              core.Soc_config.accel with
              Gemmini.Params.has_pooling = false;
              has_im2col = false;
            };
        };
      ];
  }

let guarded_run_digest model =
  let soc = Soc.create Soc_config.default in
  let engine = Soc.engine soc in
  let h = ref "" in
  Gem_sim.Engine.add_sink engine (function
    | Gem_sim.Engine.Span_open { component; time; name; cat; args } ->
        h :=
          chain !h
            (Printf.sprintf "open %s %d %s %s %s" component time name cat
               (String.concat ","
                  (List.map (fun (k, v) -> k ^ "=" ^ v) args)))
    | Gem_sim.Engine.Span_close { component; time; name } ->
        h := chain !h (Printf.sprintf "close %s %d %s" component time name)
    | _ -> ());
  let r =
    Runtime.run soc ~core:0 model
      ~mode:(Runtime.Accel { im2col_on_accel = true })
  in
  Printf.sprintf "%s/%d" (Digest.to_hex !h) r.Runtime.r_total_cycles

type pinned = {
  im2col : string;  (** [plan_ops], im2col on the accelerator *)
  cpu_im2col : string;  (** [plan_ops], host im2col *)
  run : string;  (** guarded [Runtime.run] spans / total cycles *)
  cpu_only : string;  (** [plan_ops], every layer in software *)
  bare : string;
      (** [plan_ops] on [bare_config] asking for accelerator im2col:
          the host max-pool and host im2col fallbacks *)
}

let lowering_digests =
  [
    ( "resnet50",
      {
        im2col = "52986e21236e5c87eb1595f8785a47bd";
        cpu_im2col = "7146f93ceae600b4577dfdb9082189a3";
        run = "f7d9607db5b354907e75d13b2a36ac77/2215054";
        cpu_only = "c2ed8f6e7222b9d71534c9ac2e2d7e5e";
        bare = "653b694b77a701c2fd425ea1810c2380";
      } );
    ( "alexnet",
      {
        im2col = "2d3bbefeb1b7ee2788ca9eed40108f4e";
        cpu_im2col = "bcfaa29b8a665f8f0858d9f45a781e11";
        run = "8938fa92e6e3f365be9ba4a43a0215a1/479790";
        cpu_only = "5dc9365810398951dd692ab38ae5bd6b";
        bare = "b3ded0208f11b75e952522f5e7e8b3f4";
      } );
    ( "squeezenet",
      {
        im2col = "fe12fb601594781ee37c9c953a78268f";
        cpu_im2col = "34b0a9626f92a49dd97319ceb5a84d3d";
        run = "bcd2b6fb1929c9410e344f4c90d3ba86/552008";
        cpu_only = "4d23f757010021fa72f6826f3a8f1079";
        bare = "1c67d01cdbf438b86a3ed998816032f6";
      } );
    ( "mobilenetv2",
      {
        im2col = "d023e200fed372eccb3fe3d8d16dc944";
        cpu_im2col = "91127fac2d8066148298d514f72d4792";
        run = "204948e927315fa2f377a19616b9e05c/2928563";
        cpu_only = "ce91dffd7c4d320e869f041e5c34a89d";
        bare = "91127fac2d8066148298d514f72d4792";
      } );
    ( "bert",
      {
        im2col = "914e9f9fbe3e363bbfaf84b7e74b2b0a";
        cpu_im2col = "914e9f9fbe3e363bbfaf84b7e74b2b0a";
        run = "4ec2b14f80f8a19fdbb91b9d636f6c8b/8458633";
        cpu_only = "a1c5262df68ed57dedfaa2e4e0f1d8d9";
        bare = "914e9f9fbe3e363bbfaf84b7e74b2b0a";
      } );
  ]

let test_lowering_digests () =
  let accel im2col_on_accel = Runtime.Accel { im2col_on_accel } in
  List.iter
    (fun (name, want) ->
      let model =
        Gem_dnn.Model_zoo.scale_model ~factor:8
          (Option.get (Gem_dnn.Model_zoo.find name))
      in
      let got =
        {
          im2col = plan_digest model ~mode:(accel true);
          cpu_im2col = plan_digest model ~mode:(accel false);
          run = guarded_run_digest model;
          cpu_only = plan_digest model ~mode:Runtime.Cpu_only;
          bare = plan_digest ~config:bare_config model ~mode:(accel true);
        }
      in
      let check what field =
        Alcotest.(check string) (name ^ " " ^ what) (field want) (field got)
      in
      check "plan_ops (accel im2col)" (fun d -> d.im2col);
      check "plan_ops (cpu im2col)" (fun d -> d.cpu_im2col);
      check "guarded run spans" (fun d -> d.run);
      check "plan_ops (cpu only)" (fun d -> d.cpu_only);
      check "plan_ops (no pooling unit, no im2col block)" (fun d -> d.bare))
    lowering_digests

(* Functional runs stage real data through host markers: the pinned
   streams show, among the rest, that a functional max-pool is host
   staging alone, with no pooling commands. *)
let functional_digests =
  [
    (tiny_cnn, "340e044181eb8edcaeea5f14ee2c26a6");
    (tiny_dw, "482f1c514c9cf82d38403d988d34fd95");
  ]

let test_functional_digests () =
  List.iter
    (fun (model, want) ->
      let soc = functional_soc () in
      let got =
        stream_digest
          (Runtime.plan_ops soc (Soc.core soc 0) model
             ~mode:(Runtime.Accel { im2col_on_accel = false })
             ~records:(ref []))
      in
      Alcotest.(check string) (model.Layer.model_name ^ " functional plan_ops")
        want got)
    functional_digests

(* The controller validates a compute run once, by its bounding box, and
   only runs that fail the box go through per-command validation. Every
   command the runtime emits (runs expanded) must pass [Isa.validate], and
   every compute run a planned matmul emits the box check, on every zoo
   network, preset and lowering mode: a run the box refuses is a kernel
   bug, never a silent slow path. The runtime only adds tensor addresses
   to a plan's kernels, and no run holds an address, so the runs of each
   planned shape are the runs the runtime executes. *)
let test_kernel_commands_validate () =
  let presets =
    [ ("edge", Gemmini.Params.edge); ("default", Gemmini.Params.default);
      ("cloud", Gemmini.Params.cloud) ]
  in
  let modes =
    [ ("accel im2col", Runtime.Accel { im2col_on_accel = true });
      ("host im2col", Runtime.Accel { im2col_on_accel = false });
      ("cpu only", Runtime.Cpu_only) ]
  in
  List.iter
    (fun (preset, params) ->
      List.iter
        (fun (mode_name, mode) ->
          List.iter
            (fun model ->
              let model = Gem_dnn.Model_zoo.scale_model ~factor:8 model in
              let what =
                Printf.sprintf "%s, %s, %s" model.Layer.model_name preset mode_name
              in
              let soc =
                Soc.create (Soc_config.map_accel (fun _ -> params) Soc_config.default)
              in
              let core = Soc.core soc 0 in
              Seq.iter
                (function
                  | Soc.Insn i -> (
                      match Gemmini.Isa.validate params i with
                      | Ok () -> ()
                      | Error c ->
                          Alcotest.failf "%s: %s refused: %s" what
                            (Gemmini.Isa.to_string i) (Gem_sim.Fault.cause_detail c))
                  | Soc.Compute_run _ | Soc.Host_work _ | Soc.Marker _ -> ())
                (Runtime.plan_ops soc core model ~mode ~records:(ref []));
              let runs = ref 0 in
              List.iter
                (fun lp ->
                  match lp.Lower.lp_kernel with
                  | Lower.K_matmul { shape; _ } ->
                      let bias =
                        if shape.Lower.ms_bias = `None then None else Some 0
                      in
                      Seq.iter
                        (fun step ->
                          step (function
                            | Soc.Compute_run r ->
                                incr runs;
                                if not (Gemmini.Tiled_matmul.run_fits params r) then
                                  Alcotest.failf "%s, %s: a compute run fails the box check"
                                    what lp.Lower.lp_name
                            | Soc.Insn _ | Soc.Host_work _ | Soc.Marker _ -> ()))
                        (Kernels.matmul_steps params ?bias ~a:0 ~b:0 ~out:0 shape)
                  | Lower.K_host _ | Lower.K_resadd _ | Lower.K_maxpool _ -> ())
                (Lower.plan params ~cpu:(Soc.cpu core) ~mode model);
              if (mode = Runtime.Cpu_only) <> (!runs = 0) then
                Alcotest.failf "%s: %d compute runs" what !runs)
            Gem_dnn.Model_zoo.all)
        modes)
    presets

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_kernel_matmul;
    Alcotest.test_case "resadd through accumulator" `Quick test_resadd;
    Alcotest.test_case "tiny CNN end-to-end (conv/resadd/pool/gap/fc)" `Quick
      (run_net_test tiny_cnn ~input_shape:[| 1; 8; 8; 3 |] ~seed:11);
    Alcotest.test_case "depthwise + pointwise end-to-end" `Quick
      (run_net_test tiny_dw ~input_shape:[| 1; 6; 6; 4 |] ~seed:13);
    Alcotest.test_case "strided padded conv end-to-end" `Quick test_strided_conv;
    Alcotest.test_case "lowering digests match the reference (zoo/8)" `Quick
      test_lowering_digests;
    Alcotest.test_case "functional lowering digests (tiny nets)" `Quick
      test_functional_digests;
    Alcotest.test_case "kernel commands validate (zoo/8, presets, modes)" `Quick
      test_kernel_commands_validate;
  ]
