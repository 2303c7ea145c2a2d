let page_bits = 12
let page_size = 1 lsl page_bits

type t = { pages : (int, Bytes.t) Hashtbl.t }

let create () = { pages = Hashtbl.create 256 }

let page_of t addr =
  let key = addr lsr page_bits in
  match Hashtbl.find_opt t.pages key with
  | Some p -> p
  | None ->
      let p = Bytes.make page_size '\000' in
      Hashtbl.add t.pages key p;
      p

let read_byte t ~addr =
  if addr < 0 then invalid_arg "Mainmem.read_byte: negative address";
  match Hashtbl.find_opt t.pages (addr lsr page_bits) with
  | None -> 0
  | Some p -> Char.code (Bytes.get p (addr land (page_size - 1)))

let write_byte t ~addr v =
  if addr < 0 then invalid_arg "Mainmem.write_byte: negative address";
  let p = page_of t addr in
  Bytes.set p (addr land (page_size - 1)) (Char.chr (v land 0xFF))

let read_i8 t ~addr =
  let b = read_byte t ~addr in
  if b >= 128 then b - 256 else b

let write_i8 t ~addr v = write_byte t ~addr v

let read_i32 t ~addr =
  let b0 = read_byte t ~addr in
  let b1 = read_byte t ~addr:(addr + 1) in
  let b2 = read_byte t ~addr:(addr + 2) in
  let b3 = read_byte t ~addr:(addr + 3) in
  let v = b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24) in
  (* Sign-extend from 32 bits. *)
  (v lsl (Sys.int_size - 32)) asr (Sys.int_size - 32)

let write_i32 t ~addr v =
  write_byte t ~addr v;
  write_byte t ~addr:(addr + 1) (v asr 8);
  write_byte t ~addr:(addr + 2) (v asr 16);
  write_byte t ~addr:(addr + 3) (v asr 24)

let read_i8_array t ~addr ~n = Array.init n (fun i -> read_i8 t ~addr:(addr + i))

let write_i8_array t ~addr vs =
  Array.iteri (fun i v -> write_i8 t ~addr:(addr + i) v) vs

let touched_pages t = Hashtbl.length t.pages

let hex_of_bytes b =
  let n = Bytes.length b in
  let out = Buffer.create (2 * n) in
  for i = 0 to n - 1 do
    Buffer.add_string out (Printf.sprintf "%02x" (Char.code (Bytes.get b i)))
  done;
  Buffer.contents out

(* A page travels as one hex string: the only hand-written format here. *)
let page =
  Gem_util.Snap.map
    (fun s ->
      let n = String.length s in
      if n <> 2 * page_size then Gem_util.Snap.fail "bad hex page length %d" n;
      let hexval c =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | _ -> Gem_util.Snap.fail "bad hex digit %C" c
      in
      Bytes.init page_size (fun i ->
          Char.chr ((hexval s.[2 * i] lsl 4) lor hexval s.[(2 * i) + 1])))
    hex_of_bytes Gem_util.Snap.string

let codec =
  Gem_util.Snap.(
    view
      (fun t ->
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.pages []))
      (fun t pages ->
        Hashtbl.reset t.pages;
        List.iter (fun (k, p) -> Hashtbl.replace t.pages k p) pages)
      (list (pair int page)))
