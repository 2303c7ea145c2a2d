type dataflow = [ `WS | `OS ]
type t = { tiling : Gemmini.Tiled_matmul.tiling; dataflow : dataflow }

(* Mirrors the controller's reset default: prefer weight-stationary when
   the instance supports it. Every stock preset is [Dataflow.Both], so this
   choice is identical to the historical hard-wired [`WS]. *)
let pick_dataflow p =
  if Gemmini.Dataflow.supports p.Gemmini.Params.dataflow `WS then `WS else `OS

let of_tiling p tiling =
  Gemmini.Tiled_matmul.require_fit p tiling;
  { tiling; dataflow = pick_dataflow p }

let choose p ~m ~k ~n = of_tiling p (Gemmini.Tiled_matmul.choose p ~m ~k ~n)
