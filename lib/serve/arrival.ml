type request = { rq_id : int; rq_arrival : Gem_sim.Time.cycles }

type spec =
  | Poisson of { rate_rps : float }
  | Bursty of { rate_rps : float; burst : int }
  | Trace of string

let spec_of_string s =
  match String.split_on_char ':' s with
  | [ "poisson"; rate ] -> (
      match float_of_string_opt rate with
      | Some r when r > 0. -> Ok (Poisson { rate_rps = r })
      | _ -> Error (Printf.sprintf "poisson rate must be positive: %S" rate))
  | [ "bursty"; rate; burst ] -> (
      match (float_of_string_opt rate, int_of_string_opt burst) with
      | Some r, Some b when r > 0. && b >= 1 ->
          Ok (Bursty { rate_rps = r; burst = b })
      | _ ->
          Error
            (Printf.sprintf "bursty needs RATE>0 and BURST>=1: %S:%S" rate
               burst))
  | "trace" :: rest when rest <> [] ->
      (* File paths may themselves contain ':'. *)
      Ok (Trace (String.concat ":" rest))
  | _ ->
      Error
        (Printf.sprintf
           "unknown arrival spec %S (want poisson:RATE, bursty:RATE:BURST or \
            trace:FILE)"
           s)

let spec_to_string = function
  | Poisson { rate_rps } -> Printf.sprintf "poisson:%g" rate_rps
  | Bursty { rate_rps; burst } -> Printf.sprintf "bursty:%g:%d" rate_rps burst
  | Trace file -> "trace:" ^ file

(* 1 GHz convention: one simulated cycle is one nanosecond, so a rate in
   requests/second is a mean gap of 1e9/rate cycles. *)
let cycles_per_second = 1e9

let exponential rng ~mean =
  (* Rng.float returns u in [0, bound); 1-u is in (0, 1] so log is finite. *)
  let u = Gem_util.Rng.float rng 1.0 in
  -.mean *. log (1. -. u)

let of_times times =
  let times = List.stable_sort compare times in
  Array.of_list (List.mapi (fun i t -> { rq_id = i; rq_arrival = t }) times)

let read_trace file ~duration =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let times = ref [] in
      let lineno = ref 0 in
      (try
         while true do
           let line = String.trim (input_line ic) in
           incr lineno;
           if line <> "" && line.[0] <> '#' then
             match int_of_string_opt line with
             | Some t when t >= 0 ->
                 if t < duration then times := t :: !times
             | _ ->
                 invalid_arg
                   (Printf.sprintf "%s:%d: bad arrival cycle %S" file !lineno
                      line)
         done
       with End_of_file -> ());
      List.rev !times)

(* Bursts of [burst] requests, one burst per gap (Poisson arrivals are
   bursts of one). The clock is compared as a float, before any
   conversion: a gap past [max_int] cycles would convert to garbage, and
   a NaN clock (an infinite mean gap) to anything at all; both end the
   window. *)
let bursts ~rate_rps ~burst ~seed ~duration =
  let rng = Gem_util.Rng.create ~seed in
  (* The burst rate is slowed by the burst size so the long-run request
     rate stays rate_rps. *)
  let mean = cycles_per_second *. float_of_int burst /. rate_rps in
  let window = float_of_int duration in
  let rec go t acc =
    let t = t +. exponential rng ~mean in
    if not (t < window) then List.rev acc
    else
      let cycle = int_of_float t in
      go t (List.init burst (fun _ -> cycle) @ acc)
  in
  go 0.0 []

let generate spec ~seed ~duration =
  of_times
    (match spec with
    | Poisson { rate_rps } -> bursts ~rate_rps ~burst:1 ~seed ~duration
    | Bursty { rate_rps; burst } -> bursts ~rate_rps ~burst ~seed ~duration
    | Trace file -> read_trace file ~duration)
