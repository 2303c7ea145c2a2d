(** The accelerator's RoCC instruction set.

    Gemmini is programmed through RISC-V custom instructions, each carrying
    a 7-bit funct plus two 64-bit source registers. This module defines the
    command set (the low-level layer of the paper's multi-level programming
    interface), together with a bit-exact encoder/decoder for the packed
    register formats — the same packing the C intrinsics perform:

    - data movers: [Mvin] (DRAM->scratchpad/accumulator, three configurable
      stride channels) and [Mvout] (accumulator/scratchpad->DRAM, with
      optional activation and max-pooling applied on the way out);
    - execution: [Preload] (stage B and the C destination) and the two
      compute flavours ([Compute_preloaded] re-preloads, [Compute_accumulated]
      reuses the resident stationary operand);
    - configuration: [Config_ex] / [Config_ld] / [Config_st];
    - the CISC-style loop instruction: [Loop_ws] executes an entire tiled
      matmul from one command (after three loop-configuration commands),
      so the host does not pay a dispatch round trip per mvin/compute —
      Gemmini's answer to host-issue bottlenecks;
    - [Flush] (TLB flush) and [Fence].

    All addresses in [Mvin]/[Mvout] are {e virtual}: translation happens in
    the DMA through the {!Gem_vm.Hierarchy}. *)

type pool_cfg = { window : int; stride : int; padding : int }

type config_ex = {
  dataflow : [ `WS | `OS ];
  activation : Peripheral.activation;
  sys_shift : int;  (** OS-mode output rounding shift; 0..63 *)
  a_transpose : bool;
  b_transpose : bool;
}

type config_ld = {
  ld_stride_bytes : int;  (** DRAM row stride for mvin; 0..2^32-1 *)
  ld_scale : float;  (** multiplier applied while loading (mvin scaling) *)
  ld_shrunk : bool;
      (** the DRAM data is input-type even though the destination is the
          accumulator: each element is widened on the way in (used to
          stream int8 feature maps into the int32 accumulator, e.g. for
          residual additions) *)
  ld_id : int;  (** which of the three mvin channels; 0..2 *)
}

type config_st = {
  st_stride_bytes : int;
  st_activation : Peripheral.activation;
  st_scale : float;  (** accumulator read-out multiplier (ACC_SCALE) *)
  st_pool : pool_cfg option;
}

type mv = {
  dram_addr : int;  (** virtual address; 0..2^48-1 *)
  local : Local_addr.t;
  cols : int;  (** 1..2^16-1 *)
  rows : int;
}

type compute_args = {
  a : Local_addr.t;
  bd : Local_addr.t;
  a_cols : int;
  a_rows : int;
  bd_cols : int;
  bd_rows : int;
}

type loop_bounds = {
  lw_m : int;  (** problem dims in elements; 1..2^16-1 each *)
  lw_k : int;
  lw_n : int;
  lw_has_bias : bool;
  lw_activation : Peripheral.activation;
}

type loop_addrs = { lw_a : int; lw_b : int }  (** virtual addresses *)

type loop_outs = { lw_bias : int; lw_c : int }

type loop_strides = {
  lw_a_stride : int;  (** DRAM row strides in bytes; 0..2^24-1 *)
  lw_b_stride : int;
  lw_c_stride : int;
  lw_scale : float;  (** accumulator read-out scale *)
}

type t =
  | Config_ex of config_ex
  | Config_ld of config_ld
  | Config_st of config_st
  | Mvin of mv * int  (** channel id 0..2 *)
  | Mvout of mv
  | Preload of { b : Local_addr.t; c : Local_addr.t; b_cols : int; b_rows : int; c_cols : int; c_rows : int }
  | Compute_preloaded of compute_args
  | Compute_accumulated of compute_args
  | Loop_ws_bounds of loop_bounds
  | Loop_ws_addrs of loop_addrs
  | Loop_ws_outs of loop_outs
  | Loop_ws of loop_strides
      (** fires the loop using the three preceding configuration commands *)
  | Flush
  | Fence

(** Packed RoCC encoding. *)
type insn = { funct : int; rs1 : int64; rs2 : int64 }

val encode : t -> insn
(** Raises [Invalid_argument] when a field is out of its encodable range. *)

val decode : insn -> (t, string) result
(** Exact inverse of {!encode} on its image. *)

val validate : Params.t -> t -> (unit, Gem_sim.Fault.cause) result
(** Architectural validity of a command against one accelerator instance:
    field ranges, dataflow support, finite scale factors, and
    scratchpad/accumulator bounds for every local access. [Ok ()] means
    the controller may dispatch it; [Error cause] is the structured fault
    the controller raises as a trap instead of executing. Commands
    accepted by {!encode} can still be rejected here — encoding checks
    bit-widths, validation checks meaning. *)

val mnemonic : t -> string
(** Constant short name of the command ("mvin", "compute.preloaded", ...);
    the span name used by per-command tracing. Allocation-free. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
