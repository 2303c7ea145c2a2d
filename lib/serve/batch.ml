type policy =
  | No_batch
  | Fixed of int
  | Deadline of { capacity : int; max_wait : Gem_sim.Time.cycles }

let policy_of_string s =
  match String.split_on_char ':' s with
  | [ "none" ] -> Ok No_batch
  | [ "fixed"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> Ok (Fixed n)
      | _ -> Error (Printf.sprintf "fixed batch size must be >= 1: %S" n))
  | [ "deadline"; n; wait_us ] -> (
      match (int_of_string_opt n, float_of_string_opt wait_us) with
      | Some n, Some w when n >= 1 && w >= 0. && Slo.in_cycle_range (w *. 1e3) ->
          Ok (Deadline { capacity = n; max_wait = int_of_float (w *. 1e3) })
      | _ ->
          Error
            (Printf.sprintf
               "deadline needs CAPACITY>=1 and a finite WAIT_US>=0 within the \
                cycle range: %S:%S"
               n wait_us))
  | _ ->
      Error
        (Printf.sprintf
           "unknown batch policy %S (want none, fixed:N or deadline:N:WAIT_US)"
           s)

let policy_to_string = function
  | No_batch -> "none"
  | Fixed n -> Printf.sprintf "fixed:%d" n
  | Deadline { capacity; max_wait } ->
      Printf.sprintf "deadline:%d:%g" capacity (float_of_int max_wait /. 1e3)

let capacity = function
  | No_batch -> 1
  | Fixed n -> n
  | Deadline { capacity; _ } -> capacity

(* Count the contiguous run of requests (from [next], at most [cap]) that
   have arrived by [horizon]. The head is included unconditionally: the
   caller only forms a batch once the head exists. *)
let arrived_by arrivals ~next ~cap ~horizon =
  let n = Array.length arrivals in
  let k = ref 1 in
  while
    !k < cap
    && next + !k < n
    && arrivals.(next + !k).Arrival.rq_arrival <= horizon
  do
    incr k
  done;
  !k

let form policy ~arrivals ~next ~free =
  let head = arrivals.(next).Arrival.rq_arrival in
  let t0 = max free head in
  match policy with
  | No_batch -> (1, t0)
  | Fixed cap ->
      (* Greedy: whatever is already waiting at t0 rides along; never
         stall the head for stragglers. *)
      (arrived_by arrivals ~next ~cap ~horizon:t0, t0)
  | Deadline { capacity; max_wait } ->
      let close = t0 + max_wait in
      let k = arrived_by arrivals ~next ~cap:capacity ~horizon:close in
      if k = capacity then
        (* Filled before the deadline: dispatch the instant the last seat
           is taken, not at the deadline itself. *)
        (k, max t0 arrivals.(next + k - 1).Arrival.rq_arrival)
      else
        (* Not full: the batcher cannot know nothing more is coming, so
           it holds the batch until the deadline expires. *)
        (k, close)
