open Gem_sim

type t = {
  latency : Time.cycles;
  bytes_per_cycle : int;
  engine : Engine.t;
  channel : Resource.t;
  bytes_read : int ref;
  bytes_written : int ref;
  cycles : Gem_util.Mathx.ceil_memo; (* bytes -> channel cycles *)
}

let create ?engine ?(name = "dram") ~latency ~bytes_per_cycle () =
  if latency < 0 then invalid_arg "Dram.create: negative latency";
  if bytes_per_cycle <= 0 then invalid_arg "Dram.create: bandwidth <= 0";
  let engine = match engine with Some e -> e | None -> Engine.create () in
  let bytes_read = ref 0 and bytes_written = ref 0 in
  let channel =
    Engine.resource engine ~kind:Engine.Dram ~name ~note:(fun () ->
        Printf.sprintf "%s B read, %s B written"
          (Gem_util.Table.fmt_int !bytes_read)
          (Gem_util.Table.fmt_int !bytes_written))
  in
  { latency; bytes_per_cycle; engine; channel; bytes_read; bytes_written;
    cycles = Gem_util.Mathx.ceil_memo bytes_per_cycle }

let latency t = t.latency
let bytes_per_cycle t = t.bytes_per_cycle

let access t ~now ~bytes ~write =
  if bytes < 0 then invalid_arg "Dram.access: negative size";
  let occupancy = Gem_util.Mathx.ceil_div_memo t.cycles (Int.max bytes 1) in
  let service_done = Engine.acquire t.engine t.channel ~now ~occupancy in
  if write then t.bytes_written := !(t.bytes_written) + bytes
  else t.bytes_read := !(t.bytes_read) + bytes;
  if Engine.live t.engine then
    Engine.emit t.engine
      (Engine.Transfer
         {
           component = Resource.name t.channel;
           time = now;
           dir = (if write then `Write else `Read);
           bytes;
         });
  service_done + t.latency

let bytes_read t = !(t.bytes_read)
let bytes_written t = !(t.bytes_written)
let requests t = Resource.requests t.channel
let busy_cycles t = Resource.busy_cycles t.channel

let reset t =
  Resource.reset t.channel;
  t.bytes_read := 0;
  t.bytes_written := 0

(* The channel resource itself is engine-owned and travels with the
   engine snapshot; only the byte counters live here. *)
let codec =
  Gem_util.Snap.(
    obj
      [ field "bytes_read" int (fun t -> !(t.bytes_read)) (fun t v -> t.bytes_read := v);
        field "bytes_written" int (fun t -> !(t.bytes_written))
          (fun t v -> t.bytes_written := v) ])
