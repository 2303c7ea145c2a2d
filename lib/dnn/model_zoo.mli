(** The five networks of the paper's evaluation (Section IV-A), plus a
    scaling hook for fast tests. *)

val resnet50 : Layer.model
val alexnet : Layer.model
val squeezenet : Layer.model
val mobilenetv2 : Layer.model
val bert : Layer.model
(** BERT-base at sequence length 128. *)

val all : Layer.model list

val find : string -> Layer.model option
(** Case-insensitive lookup by exact name, falling back to an unambiguous
    prefix ("mobilenet" finds mobilenetv2). *)

val names : string list

val scale_model : factor:int -> Layer.model -> Layer.model
(** Shrinks every layer's channel/feature dimensions by [factor] (keeping
    spatial structure), for fast experiment-shaped tests. MAC-less layers
    scale their element counts. *)

val summary_table : unit -> Gem_util.Table.t
(** Name / layers / MACs / weights for all models. *)
