(** The cycle-accurate execution backend: elaborates the SoC and runs
    every job through the event-driven simulator ({!Runtime.run_parallel},
    job [i] on core [i]). *)

include Backend.S

val run_on : Gem_soc.Soc.t -> Backend.request -> Runtime.result array
(** Like [run] but on a caller-elaborated SoC (so fault injection, trace
    collectors, or TLB observers can be armed first). The request's
    [bq_config] is assumed to match the SoC. *)
