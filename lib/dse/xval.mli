(** Cross-validation of the analytic backend against the cycle-accurate
    engine.

    Runs every requested network through both backends on the same SoC
    configuration, joins the per-layer records (both backends walk the
    same {!Gem_sw.Lower} plan, so the lists align one-to-one), and
    reports signed relative errors and the wall-clock speedup. CI gates
    the report against the committed error budget ([XVAL_budget.json]):
    the estimator may drift only within the budget, and must stay at
    least [min_speedup] times faster than the simulator. *)

type layer_error = {
  xl_name : string;
  xl_class : string;
  xl_cycle : int;
  xl_analytic : int;
  xl_rel_err : float;
}

type network_report = {
  xn_model : string;
  xn_scale : int;
  xn_cycle_total : int;
  xn_analytic_total : int;
  xn_rel_err : float;  (** signed: (analytic - cycle) / cycle *)
  xn_cycle_wall_s : float;
  xn_analytic_wall_s : float;
      (** the median of five analytic runs, which must all agree *)
  xn_speedup : float;
  xn_layers : layer_error list;
}

type report = {
  x_scale : int;
  x_networks : network_report list;
  x_max_abs_err : float;
  x_mean_abs_err : float;
  x_min_speedup : float;
}

val default_models : string list
(** Every {!Gem_dnn.Model_zoo} network, in zoo order. *)

val validate_model :
  ?config:Gem_soc.Soc_config.t ->
  ?mode:Gem_sw.Runtime.mode ->
  scale:int ->
  string ->
  network_report

val validate :
  ?config:Gem_soc.Soc_config.t ->
  ?mode:Gem_sw.Runtime.mode ->
  ?models:string list ->
  ?scale:int ->
  unit ->
  report
(** Defaults: the default SoC, accelerated mode, every zoo network at
    full scale. *)

val report_to_json : report -> Gem_util.Jsonx.t

(** {1 Error budget} *)

type budget = {
  b_default_abs_err : float;  (** allowed |rel err| unless overridden *)
  b_per_model : (string * float) list;
  b_min_speedup : float;
}

val budget_of_json : Gem_util.Jsonx.t -> (budget, string) result
val load_budget : string -> (budget, string) result

val check : report -> budget -> (unit, string list) result
(** [Error messages] lists every network over budget plus a speedup
    shortfall, if any. *)
