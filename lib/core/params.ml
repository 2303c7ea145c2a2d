open Gem_util

type t = {
  mesh_rows : int;
  mesh_cols : int;
  tile_rows : int;
  tile_cols : int;
  dataflow : Dataflow.t;
  input_type : Dtype.t;
  acc_type : Dtype.t;
  sp_capacity_bytes : int;
  sp_banks : int;
  acc_capacity_bytes : int;
  acc_banks : int;
  has_im2col : bool;
  has_pooling : bool;
  has_transposer : bool;
  has_activations : bool;
  dma_bus_bytes : int;
  max_in_flight : int;
  freq_ghz : float;
}

let dim_rows t = t.mesh_rows * t.tile_rows
let dim_cols t = t.mesh_cols * t.tile_cols
let dim t = dim_rows t
let pes t = dim_rows t * dim_cols t

let sp_row_bytes t = dim_cols t * Dtype.bytes t.input_type
let sp_rows t = t.sp_capacity_bytes / sp_row_bytes t
let sp_rows_per_bank t = sp_rows t / t.sp_banks
let acc_row_bytes t = dim_cols t * Dtype.bytes t.acc_type
let acc_rows t = t.acc_capacity_bytes / acc_row_bytes t
let acc_rows_per_bank t = acc_rows t / t.acc_banks

(* [validate] runs wherever a record enters (every component's [create]
   and every kernel's lowering), so a valid record must cost no
   allocation: the checks thread a plain list that is only consed onto,
   and the two formatted messages are built only when their check
   fails. *)
let check cond msg errs = if cond then errs else msg :: errs

let validate t =
  let e = [] in
  let e = check (t.mesh_rows > 0 && t.mesh_cols > 0) "mesh dimensions must be positive" e in
  let e = check (t.tile_rows > 0 && t.tile_cols > 0) "tile dimensions must be positive" e in
  let e =
    if dim_rows t = dim_cols t then e
    else
      Printf.sprintf "spatial array must be square, got %dx%d" (dim_rows t)
        (dim_cols t)
      :: e
  in
  let e =
    if Dtype.valid_acc_for ~input:t.input_type ~acc:t.acc_type then e
    else
      Printf.sprintf "accumulator type %s cannot accumulate %s inputs"
        (Dtype.to_string t.acc_type)
        (Dtype.to_string t.input_type)
      :: e
  in
  let e = check (t.sp_capacity_bytes > 0) "scratchpad capacity must be positive" e in
  let e = check (t.acc_capacity_bytes > 0) "accumulator capacity must be positive" e in
  let e = check (Mathx.is_pow2 t.sp_banks) "scratchpad bank count must be a power of two" e in
  let e = check (Mathx.is_pow2 t.acc_banks) "accumulator bank count must be a power of two" e in
  let dims_positive =
    t.mesh_rows > 0 && t.mesh_cols > 0 && t.tile_rows > 0 && t.tile_cols > 0
  in
  let e =
    check
      ((not dims_positive) || t.sp_capacity_bytes mod (sp_row_bytes t * t.sp_banks) = 0)
      "scratchpad capacity must divide evenly into banked rows" e
  in
  let e =
    check
      ((not dims_positive) || t.acc_capacity_bytes mod (acc_row_bytes t * t.acc_banks) = 0)
      "accumulator capacity must divide evenly into banked rows" e
  in
  let e = check (t.dma_bus_bytes > 0) "DMA bus width must be positive" e in
  let e = check (t.max_in_flight > 0) "in-flight command window must be positive" e in
  let e = check (t.freq_ghz > 0.) "clock frequency must be positive" e in
  match e with [] -> Ok () | errs -> Error (List.rev errs)

let validate_exn t =
  match validate t with
  | Ok () -> t
  | Error errs -> invalid_arg ("Params: " ^ String.concat "; " errs)

let default =
  {
    mesh_rows = 16;
    mesh_cols = 16;
    tile_rows = 1;
    tile_cols = 1;
    dataflow = Dataflow.Both;
    input_type = Dtype.Int8;
    acc_type = Dtype.Int32;
    sp_capacity_bytes = 256 * 1024;
    sp_banks = 4;
    acc_capacity_bytes = 64 * 1024;
    acc_banks = 2;
    has_im2col = true;
    has_pooling = true;
    has_transposer = true;
    has_activations = true;
    dma_bus_bytes = 8;
    max_in_flight = 16;
    freq_ghz = 1.0;
  }

let square_side ~pes =
  let side = int_of_float (sqrt (float_of_int pes) +. 0.5) in
  if side * side <> pes then
    invalid_arg (Printf.sprintf "Params: %d PEs is not a square count" pes);
  side

let tpu_like ~pes =
  let side = square_side ~pes in
  validate_exn
    { default with mesh_rows = side; mesh_cols = side; tile_rows = 1; tile_cols = 1 }

let nvdla_like ~pes =
  let side = square_side ~pes in
  validate_exn
    { default with mesh_rows = 1; mesh_cols = 1; tile_rows = side; tile_cols = side }

let edge =
  validate_exn
    {
      default with
      mesh_rows = 8;
      mesh_cols = 8;
      sp_capacity_bytes = 64 * 1024;
      acc_capacity_bytes = 32 * 1024;
      dma_bus_bytes = 8;
    }

let cloud =
  validate_exn
    {
      default with
      mesh_rows = 32;
      mesh_cols = 32;
      sp_capacity_bytes = 512 * 1024;
      acc_capacity_bytes = 128 * 1024;
      dma_bus_bytes = 32;
    }

let with_im2col b t = { t with has_im2col = b }
let with_dataflow df t = { t with dataflow = df }

let with_memories ~sp_capacity_bytes ~acc_capacity_bytes t =
  { t with sp_capacity_bytes; acc_capacity_bytes }

let describe t =
  Printf.sprintf
    "%dx%d PEs (mesh %dx%d of %dx%d tiles), %s/%s, %s dataflow, SP %s/%d banks, ACC %s/%d banks%s%s"
    (dim_rows t) (dim_cols t) t.mesh_rows t.mesh_cols t.tile_rows t.tile_cols
    (Dtype.to_string t.input_type)
    (Dtype.to_string t.acc_type)
    (Dataflow.to_string t.dataflow)
    (Table.fmt_bytes t.sp_capacity_bytes)
    t.sp_banks
    (Table.fmt_bytes t.acc_capacity_bytes)
    t.acc_banks
    (if t.has_im2col then ", im2col" else "")
    (if t.has_pooling then ", pooling" else "")
