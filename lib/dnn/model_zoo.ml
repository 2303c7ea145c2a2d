open Layer

let resnet50 = Resnet.model
let alexnet = Alexnet.model
let squeezenet = Squeezenet.model
let mobilenetv2 = Mobilenet.model
let bert = Bert.model

let all = [ resnet50; alexnet; squeezenet; mobilenetv2; bert ]

let names = List.map (fun m -> m.model_name) all

let find name =
  let want = String.lowercase_ascii name in
  let lname m = String.lowercase_ascii m.model_name in
  match List.find_opt (fun m -> lname m = want) all with
  | Some m -> Some m
  | None -> (
      (* Accept an unambiguous prefix ("mobilenet" -> mobilenetv2). *)
      match List.filter (fun m -> String.starts_with ~prefix:want (lname m)) all with
      | [ m ] -> Some m
      | _ -> None)

let scale_dim factor d = max 1 (d / factor)

let scale_layer factor l =
  let s = scale_dim factor in
  match l with
  | Conv c ->
      Conv
        {
          c with
          in_ch = (if c.in_ch <= 4 then c.in_ch else s c.in_ch);
          out_ch = s c.out_ch;
        }
  | Matmul m -> Matmul { m with k = s m.k; n = s m.n }
  | Residual_add r -> Residual_add { r with r_ch = s r.r_ch }
  | Max_pool p -> Max_pool { p with p_ch = s p.p_ch }
  | Global_avg_pool { g_h; g_w; g_ch } -> Global_avg_pool { g_h; g_w; g_ch = s g_ch }
  | Elementwise e -> Elementwise { e with e_elems = s e.e_elems }

let scale_model ~factor m =
  if factor <= 0 then invalid_arg "Model_zoo.scale_model: non-positive factor";
  if factor = 1 then m
  else
    {
      m with
      model_name = Printf.sprintf "%s/%d" m.model_name factor;
      layers = List.map (fun (n, l) -> (n, scale_layer factor l)) m.layers;
    }

let summary_table () =
  let open Gem_util in
  let t = Table.create ~title:"Model zoo" [ "Model"; "Layers"; "MACs"; "Weights" ] in
  Table.set_align t 1 Table.Right;
  Table.set_align t 2 Table.Right;
  Table.set_align t 3 Table.Right;
  List.iter
    (fun m ->
      Table.add_row t
        [
          m.model_name;
          string_of_int (layer_count m);
          Table.fmt_int (total_macs m);
          Table.fmt_bytes (total_weight_bytes m);
        ])
    all;
  t
