(** Registry of execution backends. *)

val of_kind : Backend.kind -> (module Backend.S)
val names : string list
