module Soc = Gem_soc.Soc

let kind = Backend.Cycle

(* Run a request's jobs on an existing SoC (the caller may have armed
   fault injection, attached a trace collector, or installed TLB
   observers on it). Dispatch mirrors the pre-backend-seam callers
   exactly: a single job goes through [Runtime.run] on core 0, multiple
   jobs through [Runtime.run_parallel] — byte-identical cycle counts to
   the seed runtime are a regression-gated invariant. *)
let run_on soc (rq : Backend.request) =
  let policy = rq.Backend.bq_policy and watchdog = rq.Backend.bq_watchdog in
  match rq.Backend.bq_jobs with
  | [| (model, mode) |] ->
      [| Runtime.run ~policy ?watchdog soc ~core:0 model ~mode |]
  | jobs ->
      Runtime.run_parallel ~policy ?watchdog soc jobs

let run (rq : Backend.request) =
  let soc = Soc.create rq.Backend.bq_config in
  run_on soc rq
