(* Fig. 7: end-to-end speedup over an in-order CPU baseline for the five
   evaluation DNNs, with im2col performed either by the host CPU or by the
   accelerator's optional im2col block, for Rocket and BOOM hosts.

   Paper reference points: ResNet50 2,670x (22.8 FPS) / BOOM 1,130x;
   AlexNet 79.3 FPS; SqueezeNet 1,760x; MobileNetV2 127x (18.7 FPS);
   BERT 144x; without the im2col block the BOOM host is ~2x faster than
   Rocket across CNNs. *)

open Gem_util
module Cpu = Gem_cpu.Cpu_model
module Runtime = Gem_sw.Runtime
module Soc_config = Gem_soc.Soc_config
module Soc = Gem_soc.Soc

type row = {
  model : string;
  baseline_rocket : int;  (** cycles, software on Rocket *)
  rocket_cpu_im2col : int;
  boom_cpu_im2col : int;
  rocket_accel_im2col : int;
  boom_accel_im2col : int;
}

type result = { rows : row list }

let paper_notes =
  [
    ("resnet50", "2670x / 1130x (BOOM); 22.8 FPS");
    ("alexnet", "79.3 FPS");
    ("squeezenet1.1", "1760x");
    ("mobilenetv2", "127x; 18.7 FPS");
    ("bert-base-seq128", "144x");
  ]

let run_config model cpu ~im2col =
  let soc =
    Soc.create
      { Soc_config.default with cores = [ { Soc_config.default_core with cpu } ] }
  in
  (Runtime.run soc ~core:0 model ~mode:(Runtime.Accel { im2col_on_accel = im2col }))
    .Runtime.r_total_cycles

let measure_model model =
  {
    model = model.Gem_dnn.Layer.model_name;
    baseline_rocket = Gem_sw.Lower.cpu_only_cycles Cpu.Rocket model;
    rocket_cpu_im2col = run_config model Cpu.Rocket ~im2col:false;
    boom_cpu_im2col = run_config model Cpu.Boom ~im2col:false;
    rocket_accel_im2col = run_config model Cpu.Rocket ~im2col:true;
    boom_accel_im2col = run_config model Cpu.Boom ~im2col:true;
  }

let models ~quick =
  let scale m = if quick then Gem_dnn.Model_zoo.scale_model ~factor:4 m else m in
  List.map scale Gem_dnn.Model_zoo.all

let measure ?(quick = false) () = { rows = List.map measure_model (models ~quick) }

let table r =
  let t =
    Table.create
      ~title:
        "Fig. 7: speedup vs in-order Rocket software baseline (im2col on CPU vs on accelerator)"
      [
        "DNN";
        "Rocket host, CPU im2col";
        "BOOM host, CPU im2col";
        "Rocket host, accel im2col";
        "BOOM host, accel im2col";
        "FPS @1GHz";
        "paper";
      ]
  in
  List.iter (fun i -> Table.set_align t i Table.Right) [ 1; 2; 3; 4; 5 ];
  List.iter
    (fun row ->
      let sp c = Common.speedup ~baseline:row.baseline_rocket ~cycles:c in
      Table.add_row t
        [
          row.model;
          Table.fmt_x (sp row.rocket_cpu_im2col);
          Table.fmt_x (sp row.boom_cpu_im2col);
          Table.fmt_x (sp row.rocket_accel_im2col);
          Table.fmt_x (sp row.boom_accel_im2col);
          Table.fmt_f ~dec:1 (Common.fps row.rocket_accel_im2col);
          (match List.assoc_opt row.model paper_notes with
          | Some note -> note
          | None -> "");
        ])
    r.rows;
  t

let boom_host_effect row =
  float_of_int row.rocket_cpu_im2col /. float_of_int row.boom_cpu_im2col

let run ?quick () =
  let r = measure ?quick () in
  Table.print (table r);
  Printf.printf
    "BOOM-vs-Rocket host effect without the im2col block (paper: ~2.0x on CNNs):\n";
  List.iter
    (fun row -> Printf.printf "  %-18s %.2fx\n" row.model (boom_host_effect row))
    r.rows;
  r
