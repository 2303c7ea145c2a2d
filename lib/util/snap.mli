(** One codec for component state: each component describes its snapshot
    once, and {!snapshot} and {!restore} are both derived from that
    description. An object's fields serialize in the order they are
    listed, so description order is byte order.

    Decoding raises {!Malformed}, prefixed with the path of the offending
    field, on any shape or geometry mismatch; the persistence layer turns
    it into an [Error] at the envelope boundary, so a corrupt or
    mismatched snapshot never half-restores silently. *)

exception Malformed of string

val fail : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Malformed} with a formatted message. *)

type 'a t
(** A codec between ['a] and JSON: it decodes a fresh value, or restores
    into a current one, in place where that value is mutable. *)

val snapshot : 'a t -> 'a -> Jsonx.t
val restore : 'a t -> 'a -> Jsonx.t -> unit

val decode : 'a t -> Jsonx.t -> 'a
(** A fresh value; [Invalid_argument] for an object without [~init]. *)

(** {1 Values} *)

val json : Jsonx.t t
val int : int t
val float : float t
val bool : bool t
val string : string t

val i64 : int64 t
(** A decimal string: [Jsonx.Int] carries only OCaml's 63-bit payload. *)

val map : ('a -> 'b) -> ('b -> 'a) -> 'a t -> 'b t
(** [map of_a to_a c]: a variant or record carried in [c]'s format;
    [of_a] may {!fail}. *)

val option : 'a t -> 'a option t
(** [None] is [null]. Restoring in place requires equal presence. *)

val list : 'a t -> 'a list t
val pair : 'a t -> 'b t -> ('a * 'b) t

val array : 'a t -> 'a array t
(** Restores element by element into an array of the snapshot's length. *)

val int_array : int array t

val ints : int -> int array t
(** A fixed-length int tuple. *)

val assoc : 'a t -> (string * 'a) list t
(** An object with arbitrary keys, each named at most once. *)

val fix : ('a t -> 'a t) -> 'a t
(** A recursive codec (trees). *)

val view : ('s -> 'a) -> ('s -> 'a -> unit) -> 'a t -> 's t
(** A mutable state whose whole snapshot is one value. *)

(** {1 Objects} *)

type 's field

val obj : ?init:(unit -> 's) -> 's field list -> 's t
(** [init] makes the blank value that {!decode} fills. *)

val field : string -> 'a t -> ('s -> 'a) -> ('s -> 'a -> unit) -> 's field
(** A plain field: restore hands a freshly decoded value to the setter. *)

val update : string -> 'a t -> ('s -> 'a) -> ('s -> 'a -> 's) -> 's field
(** A field of an immutable record, for codecs that are only decoded. *)

val geometry : string -> 'a t -> ('s -> 'a) -> 's field
(** Written on snapshot, checked equal on restore, never restored. *)

val sub : string -> 'a t -> ('s -> 'a) -> 's field
(** A nested sub-component, restored in place. *)

val optional : string -> 'a t -> ('s -> 'a option) -> 's field
(** A nested part only some instances hold: written when present,
    restored in place, and present in the snapshot exactly when the
    instance holds it. *)

val member : string -> Jsonx.t -> Jsonx.t
(** An object's field, for reading the persistence envelope. *)
