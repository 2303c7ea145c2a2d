open Gem_util

type activation = No_activation | Relu | Relu6 of { shift : int }

let apply_activation = function
  | No_activation -> fun x -> x
  | Relu -> Fixed.relu
  | Relu6 { shift } -> Fixed.relu6 ~shift

let scale_to dtype ~scale x =
  if Dtype.is_float dtype then x
  else begin
    let scaled = float_of_int x *. scale in
    let rounded = Float.round scaled in
    let rounded =
      (* round-half-to-even, matching the RTL *)
      if Float.abs (scaled -. rounded) = 0.5 && Float.rem rounded 2. <> 0. then
        rounded -. Float.copy_sign 1. rounded
      else rounded
    in
    Dtype.saturate dtype (int_of_float rounded)
  end

let conv_output_dim ~in_dim ~kernel ~stride ~padding =
  ((in_dim + (2 * padding) - kernel) / stride) + 1

let check_nhwc t =
  if Tensor.rank t <> 4 then invalid_arg "Peripheral: tensor must be rank-4 NHWC"

let max_pool ~window ~stride ~padding input =
  check_nhwc input;
  if window <= 0 || stride <= 0 || padding < 0 then
    invalid_arg "Peripheral.max_pool: bad geometry";
  let s = Tensor.shape input in
  let n = s.(0) and h = s.(1) and w = s.(2) and c = s.(3) in
  let oh = conv_output_dim ~in_dim:h ~kernel:window ~stride ~padding in
  let ow = conv_output_dim ~in_dim:w ~kernel:window ~stride ~padding in
  let out = Tensor.create [| n; oh; ow; c |] in
  for b = 0 to n - 1 do
    for oy = 0 to oh - 1 do
      for ox = 0 to ow - 1 do
        for ch = 0 to c - 1 do
          let best = ref min_int in
          for ky = 0 to window - 1 do
            for kx = 0 to window - 1 do
              let iy = (oy * stride) + ky - padding in
              let ix = (ox * stride) + kx - padding in
              if iy >= 0 && iy < h && ix >= 0 && ix < w then begin
                let v = Tensor.get4 input b iy ix ch in
                if v > !best then best := v
              end
            done
          done;
          Tensor.set4 out b oy ox ch !best
        done
      done
    done
  done;
  out

let avg_pool_global input =
  check_nhwc input;
  let s = Tensor.shape input in
  let n = s.(0) and h = s.(1) and w = s.(2) and c = s.(3) in
  let out = Tensor.create [| n; 1; 1; c |] in
  let count = h * w in
  for b = 0 to n - 1 do
    for ch = 0 to c - 1 do
      let sum = ref 0 in
      for y = 0 to h - 1 do
        for x = 0 to w - 1 do
          sum := !sum + Tensor.get4 input b y x ch
        done
      done;
      let avg =
        let s = !sum in
        if s >= 0 then (s + (count / 2)) / count else -((-s + (count / 2)) / count)
      in
      Tensor.set4 out b 0 0 ch avg
    done
  done;
  out

let im2col ~input ~kernel ~stride ~padding =
  check_nhwc input;
  if kernel <= 0 || stride <= 0 || padding < 0 then
    invalid_arg "Peripheral.im2col: bad geometry";
  let s = Tensor.shape input in
  let n = s.(0) and h = s.(1) and w = s.(2) and c = s.(3) in
  let oh = conv_output_dim ~in_dim:h ~kernel ~stride ~padding in
  let ow = conv_output_dim ~in_dim:w ~kernel ~stride ~padding in
  let rows = n * oh * ow in
  let cols = kernel * kernel * c in
  Matrix.init ~rows ~cols (fun r col ->
      let b = r / (oh * ow) in
      let oy = r mod (oh * ow) / ow in
      let ox = r mod ow in
      let ky = col / (kernel * c) in
      let kx = col mod (kernel * c) / c in
      let ch = col mod c in
      let iy = (oy * stride) + ky - padding in
      let ix = (ox * stride) + kx - padding in
      if iy >= 0 && iy < h && ix >= 0 && ix < w then Tensor.get4 input b iy ix ch
      else 0)

let transpose = Matrix.transpose
