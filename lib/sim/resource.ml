type t = {
  name : string;
  mutable busy_until : Time.cycles;
  mutable busy_cycles : Time.cycles;
  mutable requests : int;
  mutable wait_cycles : Time.cycles;
}

let create ~name =
  { name; busy_until = 0; busy_cycles = 0; requests = 0; wait_cycles = 0 }

let name t = t.name

let acquire t ~now ~occupancy =
  if occupancy < 0 then invalid_arg "Resource.acquire: negative occupancy";
  let start = max now t.busy_until in
  t.wait_cycles <- t.wait_cycles + (start - now);
  t.requests <- t.requests + 1;
  (* A zero-occupancy request is a probe of the service slot: it must not
     advance [busy_until], or a later probe would make earlier-in-time
     requesters queue behind simulated time that was never occupied. *)
  if occupancy > 0 then begin
    t.busy_until <- start + occupancy;
    t.busy_cycles <- t.busy_cycles + occupancy
  end;
  start + occupancy

let next_free t ~now = max now t.busy_until

let occupy_until t ~now ~start ~until =
  if start < now then invalid_arg "Resource.occupy_until: start before now";
  if until < start then invalid_arg "Resource.occupy_until: until before start";
  t.wait_cycles <- t.wait_cycles + (start - now);
  t.requests <- t.requests + 1;
  if until > start then begin
    t.busy_cycles <- t.busy_cycles + (until - start);
    if until > t.busy_until then t.busy_until <- until
  end

let busy_until t = t.busy_until
let busy_cycles t = t.busy_cycles
let requests t = t.requests
let wait_cycles t = t.wait_cycles

let utilization t ~horizon =
  if horizon <= 0 then 0.
  else float_of_int t.busy_cycles /. float_of_int horizon

let reset t =
  t.busy_until <- 0;
  t.busy_cycles <- 0;
  t.requests <- 0;
  t.wait_cycles <- 0

let force_state t ~busy_until ~busy_cycles ~requests ~wait_cycles =
  t.busy_until <- busy_until;
  t.busy_cycles <- busy_cycles;
  t.requests <- requests;
  t.wait_cycles <- wait_cycles
