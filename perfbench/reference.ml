(* A fixed reference kernel that tells how fast the host runs right now.

   Host time on a shared machine drifts: other tenants' load slows
   cache- and allocation-heavy code by up to half for stretches of tens
   of seconds, while a register-only loop or a DRAM pointer chase hardly
   moves (README.md, "Host noise"). The kernel below is a small
   discrete-event simulation written against the standard library only: a
   binary heap of pending events, a per-resource busy array, a hash table
   of a few MB, and one short-lived record per event. It runs the same
   work on every call and shares no code with the simulator, so a change
   to the simulator leaves its time alone, while the host's slow phases
   slow it together with the simulator. Workloads time it between their
   rounds and report host times at the reference host's speed. *)

type event = { at : int; res : int; len : int }

let events = 600_000
let resources = 1 lsl 18
let pending = 4096

(* Its time on the reference host (2-vCPU Xeon VM, OCaml 5.1), in a quiet
   stretch. Only the scale of the reported figures depends on it. *)
let nominal_s = 0.40

let kernel () =
  let busy = Array.make resources 0 in
  let table = Hashtbl.create 65536 in
  let heap = Array.make (pending + 1) { at = 0; res = 0; len = 0 } in
  let n = ref 0 in
  let swap i j =
    let t = heap.(i) in
    heap.(i) <- heap.(j);
    heap.(j) <- t
  in
  let push e =
    let i = ref !n in
    incr n;
    heap.(!i) <- e;
    while !i > 0 && heap.((!i - 1) / 2).at > heap.(!i).at do
      let p = (!i - 1) / 2 in
      swap p !i;
      i := p
    done
  in
  let pop () =
    let top = heap.(0) in
    decr n;
    heap.(0) <- heap.(!n);
    let i = ref 0 and go = ref true in
    while !go do
      let l = (2 * !i) + 1 in
      let m = if l + 1 < !n && heap.(l + 1).at < heap.(l).at then l + 1 else l in
      if m < !n && heap.(m).at < heap.(!i).at then begin
        swap m !i;
        i := m
      end
      else go := false
    done;
    top
  in
  let x = ref 12345 in
  let next () =
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    !x
  in
  for _ = 1 to pending do
    let r = next () in
    push { at = r land 1023; res = r land (resources - 1); len = 1 + ((r lsr 20) land 63) }
  done;
  let total = ref 0 in
  for _ = 1 to events do
    let e = pop () in
    let start = max e.at busy.(e.res) in
    busy.(e.res) <- start + e.len;
    let r = next () in
    (match Hashtbl.find_opt table (r land 0xFFFFF) with
    | Some v -> total := !total + v
    | None -> if Hashtbl.length table < 200_000 then Hashtbl.add table (r land 0xFFFFF) e.len);
    push { at = start + e.len; res = ((e.res * 31) + r) land (resources - 1); len = e.len }
  done;
  !total

(* Seconds one run of the kernel takes now. *)
let time () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ()));
  Unix.gettimeofday () -. t0

(* In a slow phase the simulator slows by more than the kernel: over
   three paired traces of resnet50 and mobilenetv2 on the reference host
   (10, 8 and 7 minutes), dividing 35 s windows of throughput by the
   kernel's speed raised to 1.2 left the least spread (0.05 against 0.07
   at 1.0 and 0.16-0.22 raw); a serving round's time scaled with the
   kernel's to the power 1.3. *)
let elasticity = 1.2

(* The host's speed relative to the reference host over a stretch
   bracketed by two kernel runs that took [before] and [after] seconds;
   below 1 when the host is slow. *)
let speed ~before ~after = (nominal_s /. ((before +. after) /. 2.)) ** elasticity
