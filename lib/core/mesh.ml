open Gem_util
module Fault = Gem_sim.Fault
module Engine = Gem_sim.Engine

type t = {
  p : Params.t;
  engine : Engine.t option;
  name : string;
  core : int;
  tiles : Tile.t array array; (* mesh_rows x mesh_cols *)
  (* h_regs.(tr).(tc): pipeline register bank feeding tile (tr,tc) from the
     left (only tc >= 1 is used). Each bank carries [tile_rows] `a` values. *)
  mutable h_regs : int array array array;
  (* v_regs.(tr).(tc): register bank feeding tile (tr,tc) from above (only
     tr >= 1 is used). Carries [tile_cols] psum (WS) or `b` (OS) values. *)
  mutable v_regs : int array array array;
}

let fresh_regs p =
  let h =
    Array.init p.Params.mesh_rows (fun _ ->
        Array.init p.Params.mesh_cols (fun _ -> Array.make p.Params.tile_rows 0))
  in
  let v =
    Array.init p.Params.mesh_rows (fun _ ->
        Array.init p.Params.mesh_cols (fun _ -> Array.make p.Params.tile_cols 0))
  in
  (h, v)

let create ?engine ?(name = "mesh") ?(core = -1) p =
  let p = Params.validate_exn p in
  let tiles =
    Array.init p.Params.mesh_rows (fun _ ->
        Array.init p.Params.mesh_cols (fun _ ->
            Tile.create ~rows:p.Params.tile_rows ~cols:p.Params.tile_cols
              ~acc_type:p.Params.acc_type))
  in
  let h_regs, v_regs = fresh_regs p in
  { p; engine; name; core; tiles; h_regs; v_regs }

(* Architecturally reachable errors (malformed operands fed to the array)
   trap; with an engine attached the trap is also counted and streamed. *)
let trap t cause =
  let cycle = match t.engine with Some e -> Engine.now e | None -> 0 in
  let fault = Fault.make ~core:t.core ~component:t.name ~cycle cause in
  match t.engine with Some e -> Engine.trap e fault | None -> Fault.trap fault

let illegal t fmt =
  Printf.ksprintf (fun msg -> trap t (Fault.Illegal_inst msg)) fmt

let params t = t.p
let dim_rows t = Params.dim_rows t.p
let dim_cols t = Params.dim_cols t.p

let clear t =
  Array.iter (Array.iter Tile.clear_stationary) t.tiles;
  let h, v = fresh_regs t.p in
  t.h_regs <- h;
  t.v_regs <- v

let preload_weights t w =
  let r = dim_rows t and c = dim_cols t in
  if Matrix.rows w > r || Matrix.cols w > c then
    invalid_arg
      (Printf.sprintf
         "Mesh.preload_weights: %dx%d weight matrix larger than %dx%d array"
         (Matrix.rows w) (Matrix.cols w) r c);
  for pr = 0 to r - 1 do
    for pc = 0 to c - 1 do
      let v =
        if pr < Matrix.rows w && pc < Matrix.cols w then Matrix.get w pr pc else 0
      in
      let tile = t.tiles.(pr / t.p.Params.tile_rows).(pc / t.p.Params.tile_cols) in
      Tile.set_stationary tile ~r:(pr mod t.p.Params.tile_rows)
        ~c:(pc mod t.p.Params.tile_cols) v
    done
  done;
  (* The shift-in pipeline moves one row per cycle through the vertical
     ports: dim_rows cycles to fill the array. *)
  r

(* One synchronous step of the mesh. Tiles read only edge inputs and the
   previous cycle's register values, so evaluation order between tiles is
   irrelevant; registers are double-buffered. [vertical] carries psums in
   WS mode and `b` values in OS mode. Returns the combinational outputs of
   the bottom tile row (one value per array column). *)
let step t ~pass ~a_edge ~top_edge =
  let p = t.p in
  let mr = p.Params.mesh_rows and mc = p.Params.mesh_cols in
  let tr = p.Params.tile_rows and tc = p.Params.tile_cols in
  let new_h, new_v = fresh_regs p in
  let bottom = Array.make (dim_cols t) 0 in
  for i = 0 to mr - 1 do
    for j = 0 to mc - 1 do
      let a_in =
        if j = 0 then Array.sub a_edge (i * tr) tr else t.h_regs.(i).(j)
      in
      let top_in =
        if i = 0 then Array.sub top_edge (j * tc) tc else t.v_regs.(i).(j)
      in
      let a_out, down_out = pass t.tiles.(i).(j) ~a_in ~top_in in
      if j < mc - 1 then new_h.(i).(j + 1) <- a_out;
      if i < mr - 1 then new_v.(i + 1).(j) <- down_out
      else Array.blit down_out 0 bottom (j * tc) tc
    done
  done;
  t.h_regs <- new_h;
  t.v_regs <- new_v;
  bottom

let ws_pass tile ~a_in ~top_in = Tile.ws_pass tile ~a_in ~psum_in:top_in
let os_pass tile ~a_in ~top_in = Tile.os_pass tile ~a_in ~b_in:top_in

(* Tile-granularity signal delays: crossing into horizontal tile index k
   costs k registers. *)
let hdelay t c = c / t.p.Params.tile_cols
let vdelay t r = r / t.p.Params.tile_rows

type result = { out : Matrix.t; cycles : int }

let check_dataflow t which =
  if not (Dataflow.supports t.p.Params.dataflow which) then
    illegal t "dataflow %s not supported by this instance"
      (match which with `WS -> "WS" | `OS -> "OS")

let run_ws t ~a ~b ~d =
  let i_n = Matrix.rows a and k_n = Matrix.cols a in
  let j_n = Matrix.cols b in
  if Matrix.rows b <> k_n then
    illegal t "run_matmul: A is %dx%d but B is %dx%d" i_n k_n (Matrix.rows b)
      j_n;
  if k_n > dim_rows t then
    illegal t "run_matmul: K=%d exceeds %d array rows" k_n (dim_rows t);
  if j_n > dim_cols t then
    illegal t "run_matmul: J=%d exceeds %d array cols" j_n (dim_cols t);
  (match d with
  | Some d ->
      if Matrix.rows d <> i_n || Matrix.cols d <> j_n then
        illegal t "run_matmul: D is %dx%d, want %dx%d" (Matrix.rows d)
          (Matrix.cols d) i_n j_n
  | None -> ());
  let preload_cycles = preload_weights t b in
  let out = Matrix.create ~rows:i_n ~cols:j_n in
  let bottom_delay = t.p.Params.mesh_rows - 1 in
  (* Last sample time: output (i_n-1, j_n-1). *)
  let t_last = i_n - 1 + hdelay t (j_n - 1) + bottom_delay in
  let a_edge = Array.make (dim_rows t) 0 in
  let top_edge = Array.make (dim_cols t) 0 in
  for cycle = 0 to t_last do
    (* Feed A: array row r receives a[i][r] at cycle i + vdelay(r). *)
    Array.fill a_edge 0 (dim_rows t) 0;
    for r = 0 to min (dim_rows t) k_n - 1 do
      let i = cycle - vdelay t r in
      if i >= 0 && i < i_n then a_edge.(r) <- Matrix.get a i r
    done;
    (* Feed bias D at the top: column c receives d[i][c] at i + hdelay(c). *)
    Array.fill top_edge 0 (dim_cols t) 0;
    (match d with
    | None -> ()
    | Some d ->
        for c = 0 to j_n - 1 do
          let i = cycle - hdelay t c in
          if i >= 0 && i < i_n then top_edge.(c) <- Matrix.get d i c
        done);
    let bottom = step t ~pass:ws_pass ~a_edge ~top_edge in
    (* Sample C: output (i,c) leaves the bottom at i + hdelay(c) + depth. *)
    for c = 0 to j_n - 1 do
      let i = cycle - hdelay t c - bottom_delay in
      if i >= 0 && i < i_n then Matrix.set out i c bottom.(c)
    done
  done;
  { out; cycles = preload_cycles + t_last + 1 }

let run_os t ~a ~b ~d =
  let i_n = Matrix.rows a and k_n = Matrix.cols a in
  let j_n = Matrix.cols b in
  if Matrix.rows b <> k_n then
    illegal t "run_matmul: A is %dx%d but B is %dx%d" i_n k_n (Matrix.rows b)
      j_n;
  if i_n > dim_rows t then
    illegal t "run_matmul: I=%d exceeds %d array rows" i_n (dim_rows t);
  if j_n > dim_cols t then
    illegal t "run_matmul: J=%d exceeds %d array cols" j_n (dim_cols t);
  clear t;
  (* Optional bias: pre-bias the stationary accumulators. *)
  (match d with
  | None -> ()
  | Some d ->
      if Matrix.rows d <> i_n || Matrix.cols d <> j_n then
        illegal t "run_matmul: D is %dx%d, want %dx%d" (Matrix.rows d)
          (Matrix.cols d) i_n j_n;
      for r = 0 to i_n - 1 do
        for c = 0 to j_n - 1 do
          let tile = t.tiles.(r / t.p.Params.tile_rows).(c / t.p.Params.tile_cols) in
          Tile.set_stationary tile ~r:(r mod t.p.Params.tile_rows)
            ~c:(c mod t.p.Params.tile_cols) (Matrix.get d r c)
        done
      done);
  let t_last = k_n - 1 + vdelay t (i_n - 1) + hdelay t (j_n - 1) in
  let a_edge = Array.make (dim_rows t) 0 in
  let top_edge = Array.make (dim_cols t) 0 in
  for cycle = 0 to t_last do
    Array.fill a_edge 0 (dim_rows t) 0;
    for r = 0 to min (dim_rows t) i_n - 1 do
      let k = cycle - vdelay t r in
      if k >= 0 && k < k_n then a_edge.(r) <- Matrix.get a r k
    done;
    Array.fill top_edge 0 (dim_cols t) 0;
    for c = 0 to j_n - 1 do
      let k = cycle - hdelay t c in
      if k >= 0 && k < k_n then top_edge.(c) <- Matrix.get b k c
    done;
    ignore (step t ~pass:os_pass ~a_edge ~top_edge)
  done;
  (* Read the stationary results; the hardware shifts them out over
     [dim_rows] cycles, which we charge in the cycle count. *)
  let out =
    Matrix.init ~rows:i_n ~cols:j_n (fun r c ->
        let tile = t.tiles.(r / t.p.Params.tile_rows).(c / t.p.Params.tile_cols) in
        Tile.get_stationary tile ~r:(r mod t.p.Params.tile_rows)
          ~c:(c mod t.p.Params.tile_cols))
  in
  { out; cycles = t_last + 1 + dim_rows t }

let run_matmul t ~dataflow ~a ~b ?d () =
  check_dataflow t dataflow;
  match dataflow with `WS -> run_ws t ~a ~b ~d | `OS -> run_os t ~a ~b ~d

let block_cycles p ~dataflow ~rows ~k ~cols ~preload =
  let p = Params.validate_exn p in
  if rows <= 0 || k <= 0 || cols <= 0 then
    invalid_arg
      (Printf.sprintf "Mesh.block_cycles: non-positive block %dx%dx%d" rows k
         cols);
  let hdelay c = c / p.Params.tile_cols in
  let vdelay r = r / p.Params.tile_rows in
  match dataflow with
  | `WS ->
      let pl = if preload then Params.dim_rows p else 0 in
      pl + rows + hdelay (cols - 1) + (p.Params.mesh_rows - 1)
  | `OS ->
      (* Preload-less dataflow; drain always charged. *)
      k + vdelay (rows - 1) + hdelay (cols - 1) + Params.dim_rows p

(* Back-to-back blocks hide the pipeline skew; only the issue occupancy
   remains. The 2-cycle bubble covers the control handoff between blocks. *)
let inter_block_bubble = 4

let pipelined_block_cycles p ~dataflow ~rows ~k ~cols ~preload =
  if rows <= 0 || k <= 0 || cols <= 0 then
    invalid_arg
      (Printf.sprintf "Mesh.pipelined_block_cycles: non-positive block %dx%dx%d"
         rows k cols);
  match dataflow with
  | `WS ->
      let occupancy = if preload then Int.max rows (Params.dim p) else rows in
      occupancy + inter_block_bubble
  | `OS ->
      (* The OS drain shares the vertical ports, so it is not hidden. *)
      k + Params.dim p + inter_block_bubble

let block_attrs ~dataflow ~rows ~k ~cols ~preload =
  [
    ("dataflow", match dataflow with `WS -> "ws" | `OS -> "os");
    ("rows", string_of_int rows);
    ("k", string_of_int k);
    ("cols", string_of_int cols);
    ("preload", if preload then "1" else "0");
  ]

let peak_macs_per_cycle p = Params.pes p

let utilization p ~dataflow ~rows ~k ~cols =
  let cyc = block_cycles p ~dataflow ~rows ~k ~cols ~preload:true in
  let macs = rows * k * cols in
  float_of_int macs /. (float_of_int cyc *. float_of_int (peak_macs_per_cycle p))
