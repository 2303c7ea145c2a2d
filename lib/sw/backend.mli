(** The execution-backend seam.

    A backend turns (SoC configuration, jobs, fault policy) into
    {!Runtime.result}s. Two implementations exist: {!Backend_cycle}
    drives the cycle-accurate SoC simulator, {!Backend_analytic} prices
    the same lowering ({!Lower.plan} / {!Schedule.t}) with a closed-form
    latency model. {!Backends} is the registry. *)

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

module type S = sig
  val kind : kind

  val run : request -> Runtime.result array
  (** One result per job, in job order. Contracts shared by every
      implementation: [r_layers] lists the model's layers in execution
      order with the classes {!Gem_dnn.Layer.class_of} assigns;
      [r_total_cycles] is the fenced finish horizon; [r_faults] records
      policy-handled traps in program order; [Abort] re-raises. *)
end
