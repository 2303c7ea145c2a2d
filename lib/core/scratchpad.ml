open Gem_mem
open Gem_sim

type t = {
  p : Params.t;
  engine : Engine.t option;
  name : string;
  core : int;
  sp : Sram.t;
  acc : Sram.t;
}

(* Bad local addresses are architecturally reachable from mvin/mvout and
   compute operands, so they trap rather than invalid_arg. *)
let trap t cause =
  let cycle = match t.engine with Some e -> Engine.now e | None -> 0 in
  let fault = Fault.make ~core:t.core ~component:t.name ~cycle cause in
  match t.engine with Some e -> Engine.trap e fault | None -> Fault.trap fault

let register_bank_probe engine ~name ~banks (sram : Sram.t) =
  Engine.register_probe engine ~kind:Engine.Scratchpad ~name ~sample:(fun () ->
      {
        Engine.p_requests = Sram.reads sram + Sram.writes sram;
        p_busy = 0;
        p_wait = 0;
        p_note =
          Printf.sprintf "%d banks, %s reads, %s writes" banks
            (Gem_util.Table.fmt_int (Sram.reads sram))
            (Gem_util.Table.fmt_int (Sram.writes sram));
      })

let create ?engine ?(name = "spad") ?(core = -1) ~functional p =
  let p = Params.validate_exn p in
  let t =
    {
      p;
      engine;
      name;
      core;
      sp =
        Sram.create ~banks:p.Params.sp_banks
          ~rows_per_bank:(Params.sp_rows_per_bank p)
          ~elems_per_row:(Params.dim_cols p) ~data:functional;
      acc =
        Sram.create ~banks:p.Params.acc_banks
          ~rows_per_bank:(Params.acc_rows_per_bank p)
          ~elems_per_row:(Params.dim_cols p) ~data:functional;
    }
  in
  (match engine with
  | None -> ()
  | Some e ->
      register_bank_probe e ~name ~banks:p.Params.sp_banks t.sp;
      register_bank_probe e ~name:(name ^ "-acc") ~banks:p.Params.acc_banks
        t.acc);
  t

let params t = t.p

let target t la =
  if Local_addr.is_garbage la then
    trap t (Fault.Illegal_inst "dereference of the garbage local address");
  if Local_addr.is_accumulator la then t.acc else t.sp

let oob_target t la = if Local_addr.is_accumulator la then t.name ^ "-acc" else t.name

let check_row t la mem row =
  let limit = Sram.total_rows mem in
  if row < 0 || row >= limit then
    trap t (Fault.Local_oob { target = oob_target t la; row; rows = 1; limit })

let read_row t la ~offset =
  let mem = target t la in
  let row = Local_addr.row la + offset in
  check_row t la mem row;
  Sram.read_row mem ~row

let write_row t la ~offset elems =
  let mem = target t la in
  let row = Local_addr.row la + offset in
  check_row t la mem row;
  if Local_addr.accumulate_flag la then begin
    if not (Local_addr.is_accumulator la) then
      trap t (Fault.Illegal_inst "accumulate flag on a scratchpad address");
    Sram.accumulate_row mem ~row elems
  end
  else Sram.write_row mem ~row elems

let read_block t la ~rows ~cols =
  Array.init rows (fun r -> Array.sub (read_row t la ~offset:r) 0 cols)

let write_block t la m =
  let rows = Gem_util.Matrix.rows m in
  for r = 0 to rows - 1 do
    write_row t la ~offset:r m.(r)
  done

let sp_rows t = Sram.total_rows t.sp
let acc_rows t = Sram.total_rows t.acc

let reset_stats t =
  Sram.reset_stats t.sp;
  Sram.reset_stats t.acc

let codec =
  Gem_util.Snap.(
    obj [ sub "sp" Sram.codec (fun t -> t.sp); sub "acc" Sram.codec (fun t -> t.acc) ])
