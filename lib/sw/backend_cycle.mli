(** The cycle-accurate execution backend: elaborates the SoC and runs
    every job through the event-driven simulator ({!Runtime.run_parallel},
    job [i] on core [i]). A caller that arms fault injection or attaches
    observers to the SoC first runs through {!Gem_persist.Persist.run}'s
    [attach] hook. *)

include Backend.S
