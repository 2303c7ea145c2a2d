(** The execution-backend seam.

    A backend turns (SoC configuration, jobs, fault policy) into
    {!Runtime.result}s. Two kinds exist: the cycle backend drives the
    cycle-accurate SoC simulator ({!Runtime.run_parallel}), and
    {!Backend_analytic} prices the same lowering ({!Lower.plan} /
    {!Schedule.t}) with a closed-form latency model.
    [Gem_persist.Persist.run] runs either kind. *)

type kind = Cycle | Analytic

val kind_name : kind -> string
val kind_of_string : string -> kind option
val all_kinds : kind list

type request = {
  bq_config : Gem_soc.Soc_config.t;
  bq_jobs : (Gem_dnn.Layer.model * Lower.mode) array;
      (** one job per core, in core order *)
  bq_policy : Runtime.policy;
  bq_watchdog : int option;
}

val request :
  ?policy:Runtime.policy ->
  ?watchdog:int ->
  config:Gem_soc.Soc_config.t ->
  (Gem_dnn.Layer.model * Lower.mode) array ->
  request
(** Validates the job/core shape: at least one job, and no more jobs
    than cores. *)
