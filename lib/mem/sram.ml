type t = {
  banks : int;
  rows_per_bank : int;
  elems_per_row : int;
  data : int array array option; (* bank -> flattened rows; None: timing only *)
  mutable reads : int;
  mutable writes : int;
}

let create ~banks ~rows_per_bank ~elems_per_row ~data =
  if banks <= 0 || rows_per_bank <= 0 || elems_per_row <= 0 then
    invalid_arg "Sram.create: non-positive dimension";
  {
    banks;
    rows_per_bank;
    elems_per_row;
    data =
      (if not data then None
       else Some (Array.init banks (fun _ -> Array.make (rows_per_bank * elems_per_row) 0)));
    reads = 0;
    writes = 0;
  }

let banks t = t.banks
let rows_per_bank t = t.rows_per_bank
let elems_per_row t = t.elems_per_row
let total_rows t = t.banks * t.rows_per_bank

let check_row t row =
  if row < 0 || row >= total_rows t then
    invalid_arg (Printf.sprintf "Sram: row %d out of range [0,%d)" row (total_rows t))

let bank_of_row t row =
  check_row t row;
  row / t.rows_per_bank

let locate t row =
  check_row t row;
  match t.data with
  | None -> invalid_arg "Sram: data access on a timing-only SRAM"
  | Some data ->
      (data.(row / t.rows_per_bank), (row mod t.rows_per_bank) * t.elems_per_row)

let read_row t ~row =
  let bank, off = locate t row in
  t.reads <- t.reads + 1;
  Array.sub bank off t.elems_per_row

let read_elem t ~row ~col =
  if col < 0 || col >= t.elems_per_row then invalid_arg "Sram.read_elem: bad col";
  let bank, off = locate t row in
  t.reads <- t.reads + 1;
  bank.(off + col)

let write_row t ~row src =
  if Array.length src > t.elems_per_row then
    invalid_arg "Sram.write_row: source wider than row";
  let bank, off = locate t row in
  t.writes <- t.writes + 1;
  let n = Array.length src in
  Array.blit src 0 bank off n;
  Array.fill bank (off + n) (t.elems_per_row - n) 0

let write_elem t ~row ~col v =
  if col < 0 || col >= t.elems_per_row then invalid_arg "Sram.write_elem: bad col";
  let bank, off = locate t row in
  t.writes <- t.writes + 1;
  bank.(off + col) <- v

let accumulate_row t ~row src =
  if Array.length src > t.elems_per_row then
    invalid_arg "Sram.accumulate_row: source wider than row";
  let bank, off = locate t row in
  t.writes <- t.writes + 1;
  Array.iteri
    (fun i v -> bank.(off + i) <- Gem_util.Fixed.sat32 (bank.(off + i) + v))
    src

let reads t = t.reads
let writes t = t.writes

let reset_stats t =
  t.reads <- 0;
  t.writes <- 0

let codec =
  Gem_util.Snap.(
    obj
      [ geometry "banks" int (fun t -> t.banks);
        geometry "rows_per_bank" int (fun t -> t.rows_per_bank);
        geometry "elems_per_row" int (fun t -> t.elems_per_row);
        field "reads" int (fun t -> t.reads) (fun t v -> t.reads <- v);
        field "writes" int (fun t -> t.writes) (fun t v -> t.writes <- v);
        optional "data" (array int_array) (fun t -> t.data) ])
