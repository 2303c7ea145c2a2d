type core_config = {
  cpu : Gem_cpu.Cpu_model.kind;
  accel : Gemmini.Params.t;
  tlb : Gem_vm.Hierarchy.config;
}

type t = {
  cores : core_config list;
  l2_size_bytes : int;
  l2_ways : int;
  l2_line_bytes : int;
  l2_hit_latency : Gem_sim.Time.cycles;
  l2_port_bytes : int;
  dram_latency : Gem_sim.Time.cycles;
  dram_bytes_per_cycle : int;
  functional : bool;
}

let default_core =
  {
    cpu = Gem_cpu.Cpu_model.Rocket;
    accel = Gemmini.Params.default;
    (* A general-purpose default: 16-entry private TLB with filter
       registers plus a 512-entry shared L2 TLB. The paper's recommended
       minimal point (4-entry private, no shared) is the Fig. 8 case-study
       subject and is swept there explicitly; page-strided weight streams
       of FC/attention layers want the larger second level. *)
    tlb =
      {
        Gem_vm.Hierarchy.default_config with
        private_entries = 16;
        shared_entries = 512;
      };
  }

let default =
  {
    cores = [ default_core ];
    l2_size_bytes = 1024 * 1024;
    l2_ways = 16;
    l2_line_bytes = 64;
    l2_hit_latency = 20;
    l2_port_bytes = 32;
    dram_latency = 110;
    dram_bytes_per_cycle = 16;
    functional = false;
  }

let dual_core = { default with cores = [ default_core; default_core ] }

let with_cores cores t = { t with cores }
let with_l2_size l2_size_bytes t = { t with l2_size_bytes }
let with_functional functional t = { t with functional }

let map_accel f t =
  { t with cores = List.map (fun c -> { c with accel = f c.accel }) t.cores }

let map_tlb f t =
  { t with cores = List.map (fun c -> { c with tlb = f c.tlb }) t.cores }

let validate t =
  let errors = ref [] in
  let check cond msg = if not cond then errors := msg :: !errors in
  check (t.cores <> []) "SoC needs at least one core";
  List.iteri
    (fun i c ->
      match Gemmini.Params.validate c.accel with
      | Ok () -> ()
      | Error errs ->
          errors :=
            Printf.sprintf "core %d accelerator: %s" i (String.concat "; " errs)
            :: !errors)
    t.cores;
  (* Everything [Cache.create] requires of the L2 geometry. *)
  let way_bytes = max 1 (t.l2_ways * t.l2_line_bytes) in
  check (t.l2_size_bytes > 0 && t.l2_ways > 0 && t.l2_line_bytes > 0) "L2 geometry must be positive";
  check (t.l2_ways <= 255) "L2 ways must be at most 255";
  check (Gem_util.Mathx.is_pow2 t.l2_line_bytes) "L2 line size must be a power of two";
  check (t.l2_size_bytes mod way_bytes = 0) "L2 size must divide into ways x lines";
  check (Gem_util.Mathx.is_pow2 (t.l2_size_bytes / way_bytes)) "L2 set count must be a power of two";
  check (t.l2_port_bytes > 0) "L2 port width must be positive";
  check (t.dram_bytes_per_cycle > 0) "DRAM bandwidth must be positive";
  check (t.dram_latency >= 0) "DRAM latency must be non-negative";
  match !errors with [] -> Ok () | errs -> Error (List.rev errs)

let describe t =
  Printf.sprintf "%d core(s), L2 %s %d-way, DRAM %d cyc / %d B-per-cyc%s"
    (List.length t.cores)
    (Gem_util.Table.fmt_bytes t.l2_size_bytes)
    t.l2_ways t.dram_latency t.dram_bytes_per_cycle
    (if t.functional then ", functional" else "")
