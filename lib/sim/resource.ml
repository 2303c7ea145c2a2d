type t = {
  name : string;
  mutable busy_until : Time.cycles;
  mutable busy_cycles : Time.cycles;
  mutable requests : int;
  mutable wait_cycles : Time.cycles;
  lat_counts : int array; (* queue latency, 64-cycle buckets *)
  mutable lat_max : Time.cycles;
}

(* Bucket [min 63 (wait / 64)] of a non-negative wait is exactly
   [Stats.Histogram]'s bucket with 64 buckets over range 4096.0. *)
let lat_buckets = 64
let lat_shift = 6

let create ~name =
  { name; busy_until = 0; busy_cycles = 0; requests = 0; wait_cycles = 0;
    lat_counts = Array.make lat_buckets 0; lat_max = 0 }

let name t = t.name

let[@inline] record_wait t wait =
  t.wait_cycles <- t.wait_cycles + wait;
  t.requests <- t.requests + 1;
  let b = wait lsr lat_shift in
  let b = if b > lat_buckets - 1 then lat_buckets - 1 else b in
  (* waits are never negative, so [b] is in [0, lat_buckets) *)
  Array.unsafe_set t.lat_counts b (Array.unsafe_get t.lat_counts b + 1);
  if wait > t.lat_max then t.lat_max <- wait

(* [max now t.busy_until] with an int comparison: the polymorphic
   [Stdlib.max] is an out-of-line call on the hot path. *)
let[@inline] slot t ~now = if now >= t.busy_until then now else t.busy_until

let acquire t ~now ~occupancy =
  if occupancy < 0 then invalid_arg "Resource.acquire: negative occupancy";
  let start = slot t ~now in
  record_wait t (start - now);
  (* A zero-occupancy request is a probe of the service slot: it must not
     advance [busy_until], or a later probe would make earlier-in-time
     requesters queue behind simulated time that was never occupied. *)
  if occupancy > 0 then begin
    t.busy_until <- start + occupancy;
    t.busy_cycles <- t.busy_cycles + occupancy
  end;
  start + occupancy

(* A private requester's back-to-back stream: request [i+1] arrives
   [gap] after request [i] finishes, so only the first can queue and the
   rest start on arrival. *)
let acquire_run t ~now ~gap ~occupancy ~n =
  if occupancy < 0 || gap < 0 || n < 1 then
    invalid_arg "Resource.acquire_run: negative occupancy or gap, or n < 1";
  let start = slot t ~now in
  record_wait t (start - now);
  t.requests <- t.requests + (n - 1);
  t.lat_counts.(0) <- t.lat_counts.(0) + (n - 1);
  let finish = start + ((n - 1) * (gap + occupancy)) + occupancy in
  if occupancy > 0 then begin
    t.busy_until <- finish;
    t.busy_cycles <- t.busy_cycles + (n * occupancy)
  end;
  finish

(* Records the [n] non-negative waits [wait], [wait - d], ... one latency
   bucket at a time: the first [c] fall in [wait]'s bucket (all [n] in a
   constant run, a growing run's clamped last bucket or a shrinking
   run's bucket 0), they sum to [c*wait - d*c(c-1)/2], and the largest
   is the first, or the last of a growing run. *)
let rec record_run t ~wait ~d n =
  if n > 0 then begin
    let b = wait lsr lat_shift in
    let b = if b > lat_buckets - 1 then lat_buckets - 1 else b in
    let c =
      if d > 0 then
        if b = 0 then n else Int.min n (((wait - (b lsl lat_shift)) / d) + 1)
      else if d < 0 && b < lat_buckets - 1 then
        Int.min n ((((b + 1) lsl lat_shift) - wait - d - 1) / -d)
      else n
    in
    let last = wait - ((c - 1) * d) in
    t.requests <- t.requests + c;
    t.wait_cycles <- t.wait_cycles + (c * wait) - (d * (c * (c - 1) / 2));
    Array.unsafe_set t.lat_counts b (Array.unsafe_get t.lat_counts b + c);
    let top = if d < 0 then last else wait in
    if top > t.lat_max then t.lat_max <- top;
    record_run t ~wait:(last - d) ~d (n - c)
  end

(* Records the waits [wait], [wait - d], [wait - 2d], ... of [n]
   requests, each floored at 0 ([wait >= 0]): with [d > 0] the first
   [ceil (wait / d)] are positive and the rest are 0. *)
let record_waits t ~wait ~d n =
  let positive = if d > 0 then Int.min n ((wait + d - 1) / d) else n in
  record_run t ~wait ~d positive;
  if positive < n then record_run t ~wait:0 ~d:0 (n - positive)

(* Request [j] arrives at [now + j*spacing]. Unrolling [acquire]'s
   [start_j = max arrival_j (start_(j-1) + occupancy)] gives
   [start_j = max (now + j*spacing) (start_0 + j*occupancy)] (with
   [occupancy = 0], [start_0 >= busy_until] stands in for the unmoved
   slot), so request [j] waits [max 0 (wait_0 - j*(spacing - occupancy))]. *)
let acquire_spaced t ~now ~spacing ~occupancy ~n =
  if occupancy < 0 || spacing < 0 || n < 1 then
    invalid_arg "Resource.acquire_spaced: negative occupancy or spacing, or n < 1";
  let start = slot t ~now in
  record_waits t ~wait:(start - now) ~d:(spacing - occupancy) n;
  let arrival = now + ((n - 1) * spacing) in
  let queued = start + ((n - 1) * occupancy) in
  let last = if arrival >= queued then arrival else queued in
  if occupancy > 0 then begin
    t.busy_until <- last + occupancy;
    t.busy_cycles <- t.busy_cycles + (n * occupancy)
  end;
  last + occupancy

let next_free t ~now = slot t ~now

let occupy_until t ~now ~start ~until =
  if start < now then invalid_arg "Resource.occupy_until: start before now";
  if until < start then invalid_arg "Resource.occupy_until: until before start";
  record_wait t (start - now);
  if until > start then begin
    t.busy_cycles <- t.busy_cycles + (until - start);
    if until > t.busy_until then t.busy_until <- until
  end

let busy_until t = t.busy_until
let busy_cycles t = t.busy_cycles
let requests t = t.requests
let wait_cycles t = t.wait_cycles

let latency t =
  Gem_util.Stats.Histogram.of_counts
    ~range:(float_of_int (lat_buckets lsl lat_shift))
    ~max:(float_of_int t.lat_max) t.lat_counts

let utilization t ~horizon =
  if horizon <= 0 then 0.
  else float_of_int t.busy_cycles /. float_of_int horizon

let reset t =
  t.busy_until <- 0;
  t.busy_cycles <- 0;
  t.requests <- 0;
  t.wait_cycles <- 0;
  Array.fill t.lat_counts 0 lat_buckets 0;
  t.lat_max <- 0

let force_state t ~busy_until ~busy_cycles ~requests ~wait_cycles =
  t.busy_until <- busy_until;
  t.busy_cycles <- busy_cycles;
  t.requests <- requests;
  t.wait_cycles <- wait_cycles
