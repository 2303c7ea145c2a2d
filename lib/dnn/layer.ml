type conv_spec = {
  in_h : int;
  in_w : int;
  in_ch : int;
  out_ch : int;
  kernel : int;
  stride : int;
  padding : int;
  relu : bool;
  depthwise : bool;
}

type matmul_spec = { m : int; k : int; n : int; relu : bool; count : int }

type pool_spec = {
  p_in_h : int;
  p_in_w : int;
  p_ch : int;
  window : int;
  p_stride : int;
  p_padding : int;
}

type t =
  | Conv of conv_spec
  | Matmul of matmul_spec
  | Residual_add of { r_h : int; r_w : int; r_ch : int; back1 : int; back2 : int }
  | Max_pool of pool_spec
  | Global_avg_pool of { g_h : int; g_w : int; g_ch : int }
  | Elementwise of { e_elems : int; e_name : string }

type klass =
  | Class_conv
  | Class_depthwise
  | Class_matmul
  | Class_resadd
  | Class_pool
  | Class_elementwise

let class_of = function
  | Conv { depthwise = true; _ } -> Class_depthwise
  | Conv _ -> Class_conv
  | Matmul _ -> Class_matmul
  | Residual_add _ -> Class_resadd
  | Max_pool _ | Global_avg_pool _ -> Class_pool
  | Elementwise _ -> Class_elementwise

let class_name = function
  | Class_conv -> "conv"
  | Class_depthwise -> "depthwise"
  | Class_matmul -> "matmul"
  | Class_resadd -> "resadd"
  | Class_pool -> "pool"
  | Class_elementwise -> "elementwise"

let conv_out_dims c =
  let out d = ((d + (2 * c.padding) - c.kernel) / c.stride) + 1 in
  (out c.in_h, out c.in_w)

let pool_out_dims p =
  let out d = ((d + (2 * p.p_padding) - p.window) / p.p_stride) + 1 in
  (out p.p_in_h, out p.p_in_w)

let macs = function
  | Conv c ->
      let oh, ow = conv_out_dims c in
      if c.depthwise then oh * ow * c.in_ch * c.kernel * c.kernel
      else oh * ow * c.out_ch * c.in_ch * c.kernel * c.kernel
  | Matmul m -> m.m * m.k * m.n * m.count
  | Residual_add _ | Max_pool _ | Global_avg_pool _ | Elementwise _ -> 0

let weight_bytes = function
  | Conv c ->
      if c.depthwise then c.in_ch * c.kernel * c.kernel
      else c.out_ch * c.in_ch * c.kernel * c.kernel
  | Matmul m -> m.k * m.n
  | Residual_add _ | Max_pool _ | Global_avg_pool _ | Elementwise _ -> 0

let in_bytes = function
  | Conv c -> c.in_h * c.in_w * c.in_ch
  | Matmul m -> m.m * m.k * m.count
  | Residual_add { r_h; r_w; r_ch; _ } -> 2 * r_h * r_w * r_ch
  | Max_pool p -> p.p_in_h * p.p_in_w * p.p_ch
  | Global_avg_pool { g_h; g_w; g_ch } -> g_h * g_w * g_ch
  | Elementwise { e_elems; _ } -> e_elems

let out_bytes = function
  | Conv c ->
      let oh, ow = conv_out_dims c in
      oh * ow * c.out_ch
  | Matmul m -> m.m * m.n * m.count
  | Residual_add { r_h; r_w; r_ch; _ } -> r_h * r_w * r_ch
  | Max_pool p ->
      let oh, ow = pool_out_dims p in
      oh * ow * p.p_ch
  | Global_avg_pool { g_ch; _ } -> g_ch
  | Elementwise { e_elems; _ } -> e_elems

let as_matmul = function
  | Conv c ->
      let oh, ow = conv_out_dims c in
      if c.depthwise then
        Some { m = oh * ow; k = c.kernel * c.kernel; n = 1; relu = c.relu; count = c.in_ch }
      else
        Some
          {
            m = oh * ow;
            k = c.kernel * c.kernel * c.in_ch;
            n = c.out_ch;
            relu = c.relu;
            count = 1;
          }
  | Matmul m -> Some m
  | Residual_add _ | Max_pool _ | Global_avg_pool _ | Elementwise _ -> None

let describe = function
  | Conv c ->
      let oh, ow = conv_out_dims c in
      Printf.sprintf "%s %dx%d/%d %d->%d (%dx%d -> %dx%d)%s"
        (if c.depthwise then "dwconv" else "conv")
        c.kernel c.kernel c.stride c.in_ch c.out_ch c.in_h c.in_w oh ow
        (if c.relu then " relu" else "")
  | Matmul m ->
      Printf.sprintf "matmul %dx%dx%d%s%s" m.m m.k m.n
        (if m.count > 1 then Printf.sprintf " x%d" m.count else "")
        (if m.relu then " relu" else "")
  | Residual_add { r_h; r_w; r_ch; back1; back2 } ->
      Printf.sprintf "resadd %dx%dx%d (operands -%d, -%d)" r_h r_w r_ch back1 back2
  | Max_pool p ->
      Printf.sprintf "maxpool %dx%d/%d on %dx%dx%d" p.window p.window p.p_stride
        p.p_in_h p.p_in_w p.p_ch
  | Global_avg_pool { g_h; g_w; g_ch } ->
      Printf.sprintf "gap %dx%dx%d" g_h g_w g_ch
  | Elementwise { e_elems; e_name } -> Printf.sprintf "%s (%d elems)" e_name e_elems

type model = { model_name : string; input_desc : string; layers : (string * t) list }

let total_macs m = Gem_util.Mathx.sum_list (List.map (fun (_, l) -> macs l) m.layers)

let total_weight_bytes m =
  Gem_util.Mathx.sum_list (List.map (fun (_, l) -> weight_bytes l) m.layers)

let layer_count m = List.length m.layers

let macs_by_class m =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (_, l) ->
      let k = class_of l in
      let prev = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
      Hashtbl.replace tbl k (prev + macs l))
    m.layers;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
