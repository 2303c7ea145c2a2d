type kind = Cycle | Analytic

let kind_name = function Cycle -> "cycle" | Analytic -> "analytic"
let all_kinds = [ Cycle; Analytic ]

let kind_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "cycle" -> Some Cycle
  | "analytic" -> Some Analytic
  | _ -> None

type request = {
  bq_config : Gem_soc.Soc_config.t;
  bq_jobs : (Gem_dnn.Layer.model * Lower.mode) array;
  bq_policy : Runtime.policy;
  bq_watchdog : int option;
}

let request ?(policy = Runtime.Abort) ?watchdog ~config jobs =
  if Array.length jobs = 0 then invalid_arg "Backend.request: no jobs";
  if Array.length jobs > List.length config.Gem_soc.Soc_config.cores then
    invalid_arg "Backend.request: more jobs than cores";
  {
    bq_config = config;
    bq_jobs = jobs;
    bq_policy = policy;
    bq_watchdog = watchdog;
  }
