exception Malformed of string

let fail fmt = Format.kasprintf (fun s -> raise (Malformed s)) fmt

(* A decoding error collects the path of the fields it arises in on its
   way out; [decode] and [restore] put that path in front of it. *)
exception Nested of string list * string

let within key f =
  try f () with
  | Malformed m -> raise (Nested ([ key ], m))
  | Nested (path, m) -> raise (Nested (key :: path, m))

let top f = try f () with Nested (path, m) -> fail "%s: %s" (String.concat "." path) m

(* [fresh] decodes a new value; [into] decodes into the current one and
   returns the result: the same value, for mutable objects and arrays. *)
type 'a t = { save : 'a -> Jsonx.t; fresh : Jsonx.t -> 'a; into : 'a -> Jsonx.t -> 'a }

let value save fresh = { save; fresh; into = (fun _ j -> fresh j) }
let snapshot c v = c.save v
let restore c v j = top (fun () -> ignore (c.into v j))
let decode c j = top (fun () -> c.fresh j)
let expected what = fail "expected %s" what

(* --- values --------------------------------------------------------------- *)

let json = value Fun.id Fun.id

let int =
  value (fun n -> Jsonx.Int n) (function
    | Jsonx.Int n -> n
    | j -> ( match Jsonx.to_int j with Some n -> n | None -> expected "int"))

let float =
  value (fun f -> Jsonx.Float f) (fun j ->
      match Jsonx.to_float j with Some f -> f | None -> expected "float")

let bool = value (fun b -> Jsonx.Bool b) (function Jsonx.Bool b -> b | _ -> expected "bool")

let string =
  value (fun s -> Jsonx.String s) (function Jsonx.String s -> s | _ -> expected "string")

let map of_a to_a c = value (fun v -> c.save (to_a v)) (fun j -> of_a (c.fresh j))

let i64 =
  map
    (fun s -> match Int64.of_string_opt s with Some v -> v | None -> expected "int64 string")
    Int64.to_string string

let items = function Jsonx.List l -> l | _ -> expected "list"
let list c = value (fun l -> Jsonx.List (List.map c.save l)) (fun j -> List.map c.fresh (items j))

let pair a b =
  value
    (fun (x, y) -> Jsonx.List [ a.save x; b.save y ])
    (function Jsonx.List [ x; y ] -> (a.fresh x, b.fresh y) | _ -> expected "a pair")

let option c =
  { save = (function None -> Jsonx.Null | Some v -> c.save v);
    fresh = (function Jsonx.Null -> None | j -> Some (c.fresh j));
    into =
      (fun cur j ->
        match (cur, j) with
        | None, Jsonx.Null -> None
        | Some _, Jsonx.Null -> fail "null, but this instance holds a value"
        | None, _ -> fail "a value, but this instance holds none"
        | Some v, j -> Some (c.into v j)) }

let array c =
  (* Decodes [l] into [a] from index [i] on. *)
  let fill dec a i l =
    let i = ref i in
    (try List.iter (fun x -> a.(!i) <- dec a.(!i) x; incr i) l
     with (Malformed _ | Nested _) as e -> within (string_of_int !i) (fun () -> raise e));
    a
  in
  { save = (fun a -> Jsonx.List (Array.fold_right (fun x l -> c.save x :: l) a []));
    fresh =
      (fun j ->
        match items j with
        | [] -> [||]
        | x :: l ->
            let a = Array.make (1 + List.length l) (c.fresh x) in
            fill (fun _ x -> c.fresh x) a 1 l);
    into =
      (fun a j ->
        let l = items j in
        if List.length l <> Array.length a then
          fail "expected %d elements, got %d" (Array.length a) (List.length l);
        fill c.into a 0 l) }

let int_array = array int

let ints n =
  let c = array int in
  { c with fresh = (fun j -> c.into (Array.make n 0) j) }

let assoc c =
  value
    (fun kvs -> Jsonx.Obj (List.map (fun (k, v) -> (k, c.save v)) kvs))
    (function
      | Jsonx.Obj kvs ->
          let seen = Hashtbl.create 16 in
          List.map
            (fun (k, v) ->
              if Hashtbl.mem seen k then fail "%S named twice" k;
              Hashtbl.add seen k ();
              (k, within k (fun () -> c.fresh v)))
            kvs
      | _ -> expected "object")

let fix f =
  let rec self =
    { save = (fun v -> (Lazy.force c).save v);
      fresh = (fun j -> (Lazy.force c).fresh j);
      into = (fun v j -> (Lazy.force c).into v j) }
  and c = lazy (f self) in
  self

let view get set c =
  { save = (fun s -> c.save (get s));
    fresh = (fun _ -> invalid_arg "Snap.view: no fresh value");
    into = (fun s j -> set s (c.fresh j); s) }

(* --- objects -------------------------------------------------------------- *)

type 's field = {
  key : string;
  put : 's -> (string * Jsonx.t) list -> (string * Jsonx.t) list;
  take : 's -> Jsonx.t option -> 's;
}

let obj ?init fields =
  let into s = function
    | Jsonx.Obj kvs ->
        List.fold_left
          (fun s f -> within f.key (fun () -> f.take s (List.assoc_opt f.key kvs)))
          s fields
    | _ -> expected "object"
  in
  { save = (fun s -> Jsonx.Obj (List.fold_right (fun f l -> f.put s l) fields []));
    fresh =
      (fun j ->
        match init with
        | Some init -> into (init ()) j
        | None -> invalid_arg "Snap.obj: no ~init to decode a fresh value");
    into }

let required = function Some j -> j | None -> fail "missing"

(* A field that is always written and restores through [take]. *)
let always key c get take = { key; put = (fun s l -> (key, c.save (get s)) :: l); take }
let field key c get set = always key c get (fun s j -> set s (c.fresh (required j)); s)
let update key c get set = always key c get (fun s j -> set s (c.fresh (required j)))
let sub key c get = always key c get (fun s j -> ignore (c.into (get s) (required j)); s)

let geometry key c get =
  always key c get (fun s j ->
      let saved = c.fresh (required j) in
      if saved <> get s then
        fail "snapshot has %s, this instance %s"
          (Jsonx.to_string (c.save saved))
          (Jsonx.to_string (c.save (get s)));
      s)

let optional key c get =
  { key;
    put = (fun s l -> match get s with Some v -> (key, c.save v) :: l | None -> l);
    take =
      (fun s j ->
        (match (get s, j) with
        | Some v, Some j -> ignore (c.into v j)
        | None, None -> ()
        | Some _, None -> fail "missing"
        | None, Some _ -> fail "present, but this instance holds none");
        s) }

let member key j = match Jsonx.member key j with Some v -> v | None -> fail "missing field %S" key
