(* Seeded inputs. The seed drives the serving arrival stream and the
   sampled sweep points; the simulator only ever sees what these
   functions generate. Everything draws from Gem_util.Rng (splitmix64),
   so equal seeds give byte-identical inputs on any host. *)

module Rng = Gem_util.Rng

(* --- serving arrivals ------------------------------------------------------ *)

let serve_rate_rps = 2000.

(* [n] open-loop Poisson arrivals (cycles at 1 GHz). The count is fixed
   so that every seed asks the simulator for the same amount of work;
   the seed moves only the arrival times, and with them batching and
   contention. *)
let arrivals ~seed ~n =
  let rng = Rng.create ~seed in
  let mean = 1e9 /. serve_rate_rps in
  let t = ref 0 in
  Array.init n (fun _ ->
      let u = Rng.float rng 1.0 in
      t := !t + int_of_float (Float.ceil (-.mean *. log (1. -. u)));
      !t)

(* The arrival-trace file format of Gem_serve.Arrival: one cycle a line. *)
let arrivals_text a =
  String.concat "" (Array.to_list (Array.map (Printf.sprintf "%d\n") a))

(* --- sweep design points ----------------------------------------------------- *)

type design = {
  network : string;
  dim : int;
  sp_kb : int;
  acc_kb : int;
  l2_kb : int;
  tlb_entries : int;
}

let networks = [ "resnet50"; "alexnet"; "squeezenet"; "mobilenetv2"; "bert" ]
let dims = [ 8; 16; 32 ]
let sp_kbs = [ 128; 256; 512 ]
let acc_kbs = [ 32; 64; 128 ]
let l2_kbs = [ 256; 512; 1024; 2048 ]
let tlb_entries = [ 4; 8; 16; 32; 64 ]

(* Host time per point depends mostly on the network and the array size,
   so every seed gets the same [per_stratum] points in each (network,
   dim) stratum and samples the memory axes inside it without
   replacement. Stratifying keeps a pass's cost steady across seeds. *)
let designs ~seed ~per_stratum =
  let rng = Rng.create ~seed in
  let memory =
    Array.of_list
      (List.concat_map
         (fun sp ->
           List.concat_map
             (fun acc ->
               List.concat_map
                 (fun l2 -> List.map (fun tlb -> (sp, acc, l2, tlb)) tlb_entries)
                 l2_kbs)
             acc_kbs)
         sp_kbs)
  in
  List.concat_map
    (fun network ->
      List.concat_map
        (fun dim ->
          let pool = Array.copy memory in
          Rng.shuffle rng pool;
          List.init per_stratum (fun i ->
              let sp_kb, acc_kb, l2_kb, tlb_entries = pool.(i) in
              { network; dim; sp_kb; acc_kb; l2_kb; tlb_entries }))
        dims)
    networks
  |> Array.of_list

let design_text d =
  Printf.sprintf "%s dim=%d sp=%dKB acc=%dKB l2=%dKB tlb=%d\n" d.network d.dim
    d.sp_kb d.acc_kb d.l2_kb d.tlb_entries

let designs_text ds = String.concat "" (Array.to_list (Array.map design_text ds))
