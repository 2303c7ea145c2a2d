module Soc = Gem_soc.Soc

let kind = Backend.Cycle

(* One job or many, they go through [Runtime.run_parallel], job [i] on
   core [i]. *)
let run (rq : Backend.request) =
  Runtime.run_parallel ~policy:rq.Backend.bq_policy
    ?watchdog:rq.Backend.bq_watchdog
    (Soc.create rq.Backend.bq_config)
    rq.Backend.bq_jobs
