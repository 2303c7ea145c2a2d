type pool_cfg = { window : int; stride : int; padding : int }

type config_ex = {
  dataflow : [ `WS | `OS ];
  activation : Peripheral.activation;
  sys_shift : int;
  a_transpose : bool;
  b_transpose : bool;
}

type config_ld = { ld_stride_bytes : int; ld_scale : float; ld_shrunk : bool; ld_id : int }

type config_st = {
  st_stride_bytes : int;
  st_activation : Peripheral.activation;
  st_scale : float;
  st_pool : pool_cfg option;
}

type mv = { dram_addr : int; local : Local_addr.t; cols : int; rows : int }

type compute_args = {
  a : Local_addr.t;
  bd : Local_addr.t;
  a_cols : int;
  a_rows : int;
  bd_cols : int;
  bd_rows : int;
}

type loop_bounds = {
  lw_m : int;
  lw_k : int;
  lw_n : int;
  lw_has_bias : bool;
  lw_activation : Peripheral.activation;
}

type loop_addrs = { lw_a : int; lw_b : int }

type loop_outs = { lw_bias : int; lw_c : int }

type loop_strides = {
  lw_a_stride : int;
  lw_b_stride : int;
  lw_c_stride : int;
  lw_scale : float;
}

type t =
  | Config_ex of config_ex
  | Config_ld of config_ld
  | Config_st of config_st
  | Mvin of mv * int
  | Mvout of mv
  | Preload of { b : Local_addr.t; c : Local_addr.t; b_cols : int; b_rows : int; c_cols : int; c_rows : int }
  | Compute_preloaded of compute_args
  | Compute_accumulated of compute_args
  | Loop_ws_bounds of loop_bounds
  | Loop_ws_addrs of loop_addrs
  | Loop_ws_outs of loop_outs
  | Loop_ws of loop_strides
  | Flush
  | Fence

type insn = { funct : int; rs1 : int64; rs2 : int64 }

(* funct values follow the upstream Gemmini ISA where they exist. *)
let funct_config = 0
let funct_mvin2 = 1
let funct_mvin = 2
let funct_mvout = 3
let funct_compute_preloaded = 4
let funct_compute_accumulated = 5
let funct_preload = 6
let funct_flush = 7
let funct_loop_ws = 8
let funct_loop_ws_bounds = 9
let funct_loop_ws_addrs = 10
let funct_loop_ws_outs = 11
let funct_mvin3 = 14
let funct_fence = 15

(* --- bit packing helpers ------------------------------------------------ *)

let mask width = Int64.sub (Int64.shift_left 1L width) 1L

let put ~lo ~width value acc =
  let v = Int64.of_int value in
  if Int64.logand v (Int64.lognot (mask width)) <> 0L then
    invalid_arg
      (Printf.sprintf "Isa: field value %d exceeds %d bits" value width);
  Int64.logor acc (Int64.shift_left v lo)

let take ~lo ~width v = Int64.to_int (Int64.logand (Int64.shift_right_logical v lo) (mask width))

let check_range ~what ~lo ~hi v =
  if v < lo || v > hi then
    invalid_arg (Printf.sprintf "Isa: %s = %d out of range [%d, %d]" what v lo hi)

(* Activation encoding: 0 = none, 1 = relu, 2 = relu6 (shift in its own
   field). *)
let activation_code = function
  | Peripheral.No_activation -> 0
  | Peripheral.Relu -> 1
  | Peripheral.Relu6 _ -> 2

let activation_shift = function Peripheral.Relu6 { shift } -> shift | _ -> 0

let activation_decode ~code ~shift =
  match code with
  | 0 -> Ok Peripheral.No_activation
  | 1 -> Ok Peripheral.Relu
  | 2 -> Ok (Peripheral.Relu6 { shift })
  | n -> Error (Printf.sprintf "bad activation code %d" n)

let fp32_bits f = Int32.bits_of_float f |> Int64.of_int32 |> Int64.logand (mask 32)
let fp32_of_bits b = Int32.float_of_bits (Int64.to_int32 b)

(* config subcommand selectors in rs1[1:0] *)
let cfg_ex = 0
let cfg_ld = 1
let cfg_st = 2

let encode_mv { dram_addr; local; cols; rows } =
  check_range ~what:"dram_addr" ~lo:0 ~hi:((1 lsl 48) - 1) dram_addr;
  check_range ~what:"cols" ~lo:1 ~hi:0xFFFF cols;
  check_range ~what:"rows" ~lo:1 ~hi:0xFFFF rows;
  let rs1 = put ~lo:0 ~width:48 dram_addr 0L in
  let rs2 =
    0L
    |> put ~lo:0 ~width:32 (Local_addr.to_bits local)
    |> put ~lo:32 ~width:16 cols
    |> put ~lo:48 ~width:16 rows
  in
  (rs1, rs2)

let decode_mv ~rs1 ~rs2 =
  {
    dram_addr = take ~lo:0 ~width:48 rs1;
    local = Local_addr.of_bits (take ~lo:0 ~width:32 rs2);
    cols = take ~lo:32 ~width:16 rs2;
    rows = take ~lo:48 ~width:16 rs2;
  }

let encode_block ~addr ~cols ~rows =
  check_range ~what:"block cols" ~lo:0 ~hi:0xFFFF cols;
  check_range ~what:"block rows" ~lo:0 ~hi:0xFFFF rows;
  0L
  |> put ~lo:0 ~width:32 (Local_addr.to_bits addr)
  |> put ~lo:32 ~width:16 cols
  |> put ~lo:48 ~width:16 rows

let decode_block v =
  ( Local_addr.of_bits (take ~lo:0 ~width:32 v),
    take ~lo:32 ~width:16 v,
    take ~lo:48 ~width:16 v )

let encode = function
  | Config_ex { dataflow; activation; sys_shift; a_transpose; b_transpose } ->
      check_range ~what:"sys_shift" ~lo:0 ~hi:63 sys_shift;
      let rs1 =
        0L
        |> put ~lo:0 ~width:2 cfg_ex
        |> put ~lo:2 ~width:1 (match dataflow with `OS -> 0 | `WS -> 1)
        |> put ~lo:3 ~width:2 (activation_code activation)
        |> put ~lo:5 ~width:6 (activation_shift activation)
        |> put ~lo:11 ~width:1 (if a_transpose then 1 else 0)
        |> put ~lo:12 ~width:1 (if b_transpose then 1 else 0)
        |> put ~lo:16 ~width:6 sys_shift
      in
      { funct = funct_config; rs1; rs2 = 0L }
  | Config_ld { ld_stride_bytes; ld_scale; ld_shrunk; ld_id } ->
      check_range ~what:"ld_id" ~lo:0 ~hi:2 ld_id;
      check_range ~what:"ld_stride" ~lo:0 ~hi:0xFFFF_FFFF ld_stride_bytes;
      let rs1 =
        0L
        |> put ~lo:0 ~width:2 cfg_ld
        |> put ~lo:2 ~width:1 (if ld_shrunk then 1 else 0)
        |> put ~lo:3 ~width:2 ld_id
        |> Int64.logor (Int64.shift_left (fp32_bits ld_scale) 32)
      in
      { funct = funct_config; rs1; rs2 = put ~lo:0 ~width:32 ld_stride_bytes 0L }
  | Config_st { st_stride_bytes; st_activation; st_scale; st_pool } ->
      check_range ~what:"st_stride" ~lo:0 ~hi:0xFFFF_FFFF st_stride_bytes;
      let rs1 =
        0L
        |> put ~lo:0 ~width:2 cfg_st
        |> put ~lo:3 ~width:2 (activation_code st_activation)
        |> put ~lo:5 ~width:6 (activation_shift st_activation)
        |> Int64.logor (Int64.shift_left (fp32_bits st_scale) 32)
      in
      let rs1 =
        match st_pool with
        | None -> rs1
        | Some { window; stride; padding } ->
            check_range ~what:"pool window" ~lo:1 ~hi:15 window;
            check_range ~what:"pool stride" ~lo:1 ~hi:15 stride;
            check_range ~what:"pool padding" ~lo:0 ~hi:15 padding;
            rs1
            |> put ~lo:11 ~width:1 1
            |> put ~lo:12 ~width:4 window
            |> put ~lo:16 ~width:4 stride
            |> put ~lo:20 ~width:4 padding
      in
      { funct = funct_config; rs1; rs2 = put ~lo:0 ~width:32 st_stride_bytes 0L }
  | Mvin (mv, id) ->
      check_range ~what:"mvin id" ~lo:0 ~hi:2 id;
      let rs1, rs2 = encode_mv mv in
      let funct =
        match id with
        | 0 -> funct_mvin
        | 1 -> funct_mvin2
        | _ -> funct_mvin3
      in
      { funct; rs1; rs2 }
  | Mvout mv ->
      let rs1, rs2 = encode_mv mv in
      { funct = funct_mvout; rs1; rs2 }
  | Preload { b; c; b_cols; b_rows; c_cols; c_rows } ->
      {
        funct = funct_preload;
        rs1 = encode_block ~addr:b ~cols:b_cols ~rows:b_rows;
        rs2 = encode_block ~addr:c ~cols:c_cols ~rows:c_rows;
      }
  | Compute_preloaded { a; bd; a_cols; a_rows; bd_cols; bd_rows } ->
      {
        funct = funct_compute_preloaded;
        rs1 = encode_block ~addr:a ~cols:a_cols ~rows:a_rows;
        rs2 = encode_block ~addr:bd ~cols:bd_cols ~rows:bd_rows;
      }
  | Compute_accumulated { a; bd; a_cols; a_rows; bd_cols; bd_rows } ->
      {
        funct = funct_compute_accumulated;
        rs1 = encode_block ~addr:a ~cols:a_cols ~rows:a_rows;
        rs2 = encode_block ~addr:bd ~cols:bd_cols ~rows:bd_rows;
      }
  | Loop_ws_bounds { lw_m; lw_k; lw_n; lw_has_bias; lw_activation } ->
      check_range ~what:"loop m" ~lo:1 ~hi:0xFFFF lw_m;
      check_range ~what:"loop k" ~lo:1 ~hi:0xFFFF lw_k;
      check_range ~what:"loop n" ~lo:1 ~hi:0xFFFF lw_n;
      let rs1 = 0L |> put ~lo:0 ~width:16 lw_m |> put ~lo:16 ~width:16 lw_k |> put ~lo:32 ~width:16 lw_n in
      let rs2 =
        0L
        |> put ~lo:0 ~width:1 (if lw_has_bias then 1 else 0)
        |> put ~lo:1 ~width:2 (activation_code lw_activation)
        |> put ~lo:3 ~width:6 (activation_shift lw_activation)
      in
      { funct = funct_loop_ws_bounds; rs1; rs2 }
  | Loop_ws_addrs { lw_a; lw_b } ->
      check_range ~what:"loop a" ~lo:0 ~hi:((1 lsl 48) - 1) lw_a;
      check_range ~what:"loop b" ~lo:0 ~hi:((1 lsl 48) - 1) lw_b;
      { funct = funct_loop_ws_addrs; rs1 = put ~lo:0 ~width:48 lw_a 0L; rs2 = put ~lo:0 ~width:48 lw_b 0L }
  | Loop_ws_outs { lw_bias; lw_c } ->
      check_range ~what:"loop bias" ~lo:0 ~hi:((1 lsl 48) - 1) lw_bias;
      check_range ~what:"loop c" ~lo:0 ~hi:((1 lsl 48) - 1) lw_c;
      { funct = funct_loop_ws_outs; rs1 = put ~lo:0 ~width:48 lw_bias 0L; rs2 = put ~lo:0 ~width:48 lw_c 0L }
  | Loop_ws { lw_a_stride; lw_b_stride; lw_c_stride; lw_scale } ->
      check_range ~what:"a stride" ~lo:0 ~hi:0xFF_FFFF lw_a_stride;
      check_range ~what:"b stride" ~lo:0 ~hi:0xFF_FFFF lw_b_stride;
      check_range ~what:"c stride" ~lo:0 ~hi:0xFF_FFFF lw_c_stride;
      let rs1 = 0L |> put ~lo:0 ~width:24 lw_a_stride |> put ~lo:24 ~width:24 lw_b_stride in
      let rs2 =
        0L
        |> put ~lo:0 ~width:24 lw_c_stride
        |> Int64.logor (Int64.shift_left (fp32_bits lw_scale) 32)
      in
      { funct = funct_loop_ws; rs1; rs2 }
  | Flush -> { funct = funct_flush; rs1 = 0L; rs2 = 0L }
  | Fence -> { funct = funct_fence; rs1 = 0L; rs2 = 0L }

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let decode { funct; rs1; rs2 } =
  if funct = funct_config then begin
    match take ~lo:0 ~width:2 rs1 with
    | n when n = cfg_ex ->
        let* activation =
          activation_decode ~code:(take ~lo:3 ~width:2 rs1)
            ~shift:(take ~lo:5 ~width:6 rs1)
        in
        Ok
          (Config_ex
             {
               dataflow = (if take ~lo:2 ~width:1 rs1 = 1 then `WS else `OS);
               activation;
               sys_shift = take ~lo:16 ~width:6 rs1;
               a_transpose = take ~lo:11 ~width:1 rs1 = 1;
               b_transpose = take ~lo:12 ~width:1 rs1 = 1;
             })
    | n when n = cfg_ld ->
        Ok
          (Config_ld
             {
               ld_stride_bytes = take ~lo:0 ~width:32 rs2;
               ld_scale = fp32_of_bits (Int64.shift_right_logical rs1 32);
               ld_shrunk = take ~lo:2 ~width:1 rs1 = 1;
               ld_id = take ~lo:3 ~width:2 rs1;
             })
    | n when n = cfg_st ->
        let* st_activation =
          activation_decode ~code:(take ~lo:3 ~width:2 rs1)
            ~shift:(take ~lo:5 ~width:6 rs1)
        in
        let st_pool =
          if take ~lo:11 ~width:1 rs1 = 1 then
            Some
              {
                window = take ~lo:12 ~width:4 rs1;
                stride = take ~lo:16 ~width:4 rs1;
                padding = take ~lo:20 ~width:4 rs1;
              }
          else None
        in
        Ok
          (Config_st
             {
               st_stride_bytes = take ~lo:0 ~width:32 rs2;
               st_activation;
               st_scale = fp32_of_bits (Int64.shift_right_logical rs1 32);
               st_pool;
             })
    | n -> Error (Printf.sprintf "bad config selector %d" n)
  end
  else if funct = funct_mvin then Ok (Mvin (decode_mv ~rs1 ~rs2, 0))
  else if funct = funct_mvin2 then Ok (Mvin (decode_mv ~rs1 ~rs2, 1))
  else if funct = funct_mvin3 then Ok (Mvin (decode_mv ~rs1 ~rs2, 2))
  else if funct = funct_mvout then Ok (Mvout (decode_mv ~rs1 ~rs2))
  else if funct = funct_preload then begin
    let b, b_cols, b_rows = decode_block rs1 in
    let c, c_cols, c_rows = decode_block rs2 in
    Ok (Preload { b; c; b_cols; b_rows; c_cols; c_rows })
  end
  else if funct = funct_compute_preloaded || funct = funct_compute_accumulated
  then begin
    let a, a_cols, a_rows = decode_block rs1 in
    let bd, bd_cols, bd_rows = decode_block rs2 in
    let args = { a; bd; a_cols; a_rows; bd_cols; bd_rows } in
    if funct = funct_compute_preloaded then Ok (Compute_preloaded args)
    else Ok (Compute_accumulated args)
  end
  else if funct = funct_loop_ws_bounds then
    let* lw_activation =
      activation_decode ~code:(take ~lo:1 ~width:2 rs2) ~shift:(take ~lo:3 ~width:6 rs2)
    in
    Ok
      (Loop_ws_bounds
         {
           lw_m = take ~lo:0 ~width:16 rs1;
           lw_k = take ~lo:16 ~width:16 rs1;
           lw_n = take ~lo:32 ~width:16 rs1;
           lw_has_bias = take ~lo:0 ~width:1 rs2 = 1;
           lw_activation;
         })
  else if funct = funct_loop_ws_addrs then
    Ok (Loop_ws_addrs { lw_a = take ~lo:0 ~width:48 rs1; lw_b = take ~lo:0 ~width:48 rs2 })
  else if funct = funct_loop_ws_outs then
    Ok (Loop_ws_outs { lw_bias = take ~lo:0 ~width:48 rs1; lw_c = take ~lo:0 ~width:48 rs2 })
  else if funct = funct_loop_ws then
    Ok
      (Loop_ws
         {
           lw_a_stride = take ~lo:0 ~width:24 rs1;
           lw_b_stride = take ~lo:24 ~width:24 rs1;
           lw_c_stride = take ~lo:0 ~width:24 rs2;
           lw_scale = fp32_of_bits (Int64.shift_right_logical rs2 32);
         })
  else if funct = funct_flush then Ok Flush
  else if funct = funct_fence then Ok Fence
  else Error (Printf.sprintf "unknown funct %d" funct)

let activation_to_string = function
  | Peripheral.No_activation -> "none"
  | Peripheral.Relu -> "relu"
  | Peripheral.Relu6 { shift } -> Printf.sprintf "relu6<<%d" shift

let mnemonic = function
  | Config_ex _ -> "config_ex"
  | Config_ld _ -> "config_ld"
  | Config_st _ -> "config_st"
  | Mvin _ -> "mvin"
  | Mvout _ -> "mvout"
  | Preload _ -> "preload"
  | Compute_preloaded _ -> "compute.preloaded"
  | Compute_accumulated _ -> "compute.accumulated"
  | Loop_ws_bounds _ -> "loop_ws.bounds"
  | Loop_ws_addrs _ -> "loop_ws.addrs"
  | Loop_ws_outs _ -> "loop_ws.outs"
  | Loop_ws _ -> "loop_ws"
  | Flush -> "flush"
  | Fence -> "fence"

let to_string = function
  | Config_ex c ->
      Printf.sprintf "config_ex df=%s act=%s shift=%d%s%s"
        (match c.dataflow with `WS -> "WS" | `OS -> "OS")
        (activation_to_string c.activation)
        c.sys_shift
        (if c.a_transpose then " At" else "")
        (if c.b_transpose then " Bt" else "")
  | Config_ld c ->
      Printf.sprintf "config_ld[%d] stride=%d scale=%g%s" c.ld_id c.ld_stride_bytes
        c.ld_scale
        (if c.ld_shrunk then " shrunk" else "")
  | Config_st c ->
      Printf.sprintf "config_st stride=%d act=%s scale=%g%s" c.st_stride_bytes
        (activation_to_string c.st_activation)
        c.st_scale
        (match c.st_pool with
        | None -> ""
        | Some p -> Printf.sprintf " pool=%dx%d/s%d/p%d" p.window p.window p.stride p.padding)
  | Mvin (mv, id) ->
      Printf.sprintf "mvin%d 0x%x -> %s (%dx%d)" id mv.dram_addr
        (Local_addr.to_string mv.local) mv.rows mv.cols
  | Mvout mv ->
      Printf.sprintf "mvout %s -> 0x%x (%dx%d)"
        (Local_addr.to_string mv.local) mv.dram_addr mv.rows mv.cols
  | Preload p ->
      Printf.sprintf "preload b=%s (%dx%d) c=%s (%dx%d)"
        (Local_addr.to_string p.b) p.b_rows p.b_cols (Local_addr.to_string p.c)
        p.c_rows p.c_cols
  | Compute_preloaded a ->
      Printf.sprintf "compute.preloaded a=%s (%dx%d) bd=%s (%dx%d)"
        (Local_addr.to_string a.a) a.a_rows a.a_cols (Local_addr.to_string a.bd)
        a.bd_rows a.bd_cols
  | Compute_accumulated a ->
      Printf.sprintf "compute.accumulated a=%s (%dx%d) bd=%s (%dx%d)"
        (Local_addr.to_string a.a) a.a_rows a.a_cols (Local_addr.to_string a.bd)
        a.bd_rows a.bd_cols
  | Loop_ws_bounds b ->
      Printf.sprintf "loop_ws.bounds %dx%dx%d%s act=%s" b.lw_m b.lw_k b.lw_n
        (if b.lw_has_bias then " +bias" else "")
        (activation_to_string b.lw_activation)
  | Loop_ws_addrs a -> Printf.sprintf "loop_ws.addrs a=0x%x b=0x%x" a.lw_a a.lw_b
  | Loop_ws_outs o -> Printf.sprintf "loop_ws.outs bias=0x%x c=0x%x" o.lw_bias o.lw_c
  | Loop_ws s ->
      Printf.sprintf "loop_ws strides=%d/%d/%d scale=%g" s.lw_a_stride
        s.lw_b_stride s.lw_c_stride s.lw_scale
  | Flush -> "flush"
  | Fence -> "fence"

let pp fmt t = Format.pp_print_string fmt (to_string t)

let equal (a : t) (b : t) = a = b

(* --- semantic validation ------------------------------------------------- *)

module Fault = Gem_sim.Fault

let ceil_div a b = (a + b - 1) / b

let illegal fmt =
  Printf.ksprintf (fun msg -> Error (Fault.Illegal_inst msg)) fmt

let field ~what ~lo ~hi v =
  if v < lo || v > hi then
    illegal "%s = %d out of range [%d, %d]" what v lo hi
  else Ok ()

let finite_scale scale =
  if Float.is_finite scale then Ok () else Error (Fault.Acc_overflow { scale })

(* Sequencing for the validator: the first error wins. Every check is a
   pure comparison whose [Error] (and message) is built only when it
   fails, so chaining with a plain function instead of a [let*] closure
   keeps the validation of a well-formed command allocation-free — it
   runs on every dispatched command. *)
let ( &> ) r next = match r with Ok () -> next | Error _ -> r

(* A strided local access touches rows [row, row + strides*dim + rows) of
   its target memory: mvin/mvout place each dim-wide column block a full
   array-height further down, mirroring how the kernels tile wide
   matrices. *)
let local_extent ~p ~local ~cols ~rows =
  let dim = Params.dim p in
  let blocks = ceil_div cols dim in
  let row = Local_addr.row local in
  let target, limit =
    if Local_addr.is_accumulator local then ("accumulator", Params.acc_rows p)
    else ("scratchpad", Params.sp_rows p)
  in
  let last = row + ((blocks - 1) * dim) + rows in
  if last > limit then
    Error (Fault.Local_oob { target; row; rows = last - row; limit })
  else Ok ()

let block_extent ~p ~local ~rows =
  let row = Local_addr.row local in
  let target, limit =
    if Local_addr.is_accumulator local then ("accumulator", Params.acc_rows p)
    else ("scratchpad", Params.sp_rows p)
  in
  if row + rows > limit then
    Error (Fault.Local_oob { target; row; rows; limit })
  else Ok ()

let dram_max = (1 lsl 48) - 1

let validate p cmd =
  let dim = Params.dim p in
  match cmd with
  | Config_ex { dataflow; sys_shift; _ } ->
      field ~what:"sys_shift" ~lo:0 ~hi:63 sys_shift
      &>
      if Dataflow.supports p.Params.dataflow dataflow then Ok ()
      else
        illegal "dataflow %s not supported by this instance (%s)"
          (match dataflow with `WS -> "WS" | `OS -> "OS")
          (Dataflow.to_string p.Params.dataflow)
  | Config_ld { ld_stride_bytes; ld_scale; ld_id; _ } ->
      field ~what:"ld_id" ~lo:0 ~hi:2 ld_id
      &> field ~what:"ld_stride" ~lo:0 ~hi:0xFFFF_FFFF ld_stride_bytes
      &> finite_scale ld_scale
  | Config_st { st_stride_bytes; st_scale; st_pool; _ } ->
      field ~what:"st_stride" ~lo:0 ~hi:0xFFFF_FFFF st_stride_bytes
      &> (match st_pool with
         | None -> Ok ()
         | Some { window; stride; padding } ->
             field ~what:"pool window" ~lo:1 ~hi:15 window
             &> field ~what:"pool stride" ~lo:1 ~hi:15 stride
             &> field ~what:"pool padding" ~lo:0 ~hi:15 padding)
      &> finite_scale st_scale
  | Mvin ({ dram_addr; local; cols; rows }, id) ->
      field ~what:"mvin id" ~lo:0 ~hi:2 id
      &> field ~what:"dram_addr" ~lo:0 ~hi:dram_max dram_addr
      &> field ~what:"mvin cols" ~lo:1 ~hi:(4 * dim) cols
      &> field ~what:"mvin rows" ~lo:1 ~hi:dim rows
      &>
      if Local_addr.is_garbage local then
        illegal "mvin destination is the garbage address"
      else if Local_addr.accumulate_flag local && not (Local_addr.is_accumulator local)
      then illegal "mvin accumulate flag on a scratchpad destination"
      else local_extent ~p ~local ~cols ~rows
  | Mvout { dram_addr; local; cols; rows } ->
      field ~what:"dram_addr" ~lo:0 ~hi:dram_max dram_addr
      &> field ~what:"mvout cols" ~lo:1 ~hi:dim cols
      &> field ~what:"mvout rows" ~lo:1 ~hi:dim rows
      &>
      if Local_addr.is_garbage local then
        illegal "mvout source is the garbage address"
      else local_extent ~p ~local ~cols ~rows
  | Preload { b; c; b_cols; b_rows; c_cols; c_rows } ->
      field ~what:"preload b_cols" ~lo:1 ~hi:dim b_cols
      &> field ~what:"preload b_rows" ~lo:1 ~hi:dim b_rows
      &> field ~what:"preload c_cols" ~lo:1 ~hi:dim c_cols
      &> field ~what:"preload c_rows" ~lo:1 ~hi:dim c_rows
      &> (if Local_addr.is_garbage b then Ok ()
         else block_extent ~p ~local:b ~rows:b_rows)
      &>
      if Local_addr.is_garbage c then Ok ()
      else block_extent ~p ~local:c ~rows:c_rows
  | Compute_preloaded { a; bd; a_cols; a_rows; bd_cols; bd_rows }
  | Compute_accumulated { a; bd; a_cols; a_rows; bd_cols; bd_rows } ->
      field ~what:"compute a_cols" ~lo:1 ~hi:0xFFFF a_cols
      &> field ~what:"compute a_rows" ~lo:1 ~hi:0xFFFF a_rows
      &> field ~what:"compute bd_cols" ~lo:1 ~hi:0xFFFF bd_cols
      &> field ~what:"compute bd_rows" ~lo:1 ~hi:0xFFFF bd_rows
      &> (if Local_addr.is_garbage a then Ok ()
         else block_extent ~p ~local:a ~rows:(min a_rows dim))
      &>
      if Local_addr.is_garbage bd then Ok ()
      else block_extent ~p ~local:bd ~rows:(min bd_rows dim)
  | Loop_ws_bounds { lw_m; lw_k; lw_n; _ } ->
      field ~what:"loop m" ~lo:1 ~hi:0xFFFF lw_m
      &> field ~what:"loop k" ~lo:1 ~hi:0xFFFF lw_k
      &> field ~what:"loop n" ~lo:1 ~hi:0xFFFF lw_n
  | Loop_ws_addrs { lw_a; lw_b } ->
      field ~what:"loop a" ~lo:0 ~hi:dram_max lw_a
      &> field ~what:"loop b" ~lo:0 ~hi:dram_max lw_b
  | Loop_ws_outs { lw_bias; lw_c } ->
      field ~what:"loop bias" ~lo:0 ~hi:dram_max lw_bias
      &> field ~what:"loop c" ~lo:0 ~hi:dram_max lw_c
  | Loop_ws { lw_a_stride; lw_b_stride; lw_c_stride; lw_scale } ->
      field ~what:"a stride" ~lo:0 ~hi:0xFF_FFFF lw_a_stride
      &> field ~what:"b stride" ~lo:0 ~hi:0xFF_FFFF lw_b_stride
      &> field ~what:"c stride" ~lo:0 ~hi:0xFF_FFFF lw_c_stride
      &> finite_scale lw_scale
  | Flush | Fence -> Ok ()
