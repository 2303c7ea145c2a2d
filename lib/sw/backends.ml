let of_kind : Backend.kind -> (module Backend.S) = function
  | Backend.Cycle -> (module Backend_cycle)
  | Backend.Analytic -> (module Backend_analytic)

let names = List.map Backend.kind_name Backend.all_kinds
