module Soc = Gem_soc.Soc

let kind = Backend.Cycle

(* Run a request's jobs on an existing SoC (the caller may have armed
   fault injection, attached a trace collector, or installed TLB
   observers on it). One job or many, they go through
   [Runtime.run_parallel], job [i] on core [i]. *)
let run_on soc (rq : Backend.request) =
  Runtime.run_parallel ~policy:rq.Backend.bq_policy
    ?watchdog:rq.Backend.bq_watchdog soc rq.Backend.bq_jobs

let run (rq : Backend.request) =
  let soc = Soc.create rq.Backend.bq_config in
  run_on soc rq
