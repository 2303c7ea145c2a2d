let page_bits = 12
let page_size = 1 lsl page_bits
let levels = 3
let index_bits = 9
let entries_per_node = 1 lsl index_bits

let vpn_of_vaddr vaddr = vaddr lsr page_bits
let page_offset vaddr = vaddr land (page_size - 1)

type node = {
  paddr : int; (* physical base of this node *)
  children : node option array; (* interior levels *)
  leaves : int array; (* leaf level: PPN or -1 *)
}

type t = {
  root : node;
  mutable next_node_paddr : int;
  mutable mapped_pages : int;
  mutable node_count : int;
}

let make_node paddr =
  {
    paddr;
    children = Array.make entries_per_node None;
    leaves = Array.make entries_per_node (-1);
  }

let create ~node_region_base () =
  if node_region_base land (page_size - 1) <> 0 then
    invalid_arg "Page_table.create: node region must be page-aligned";
  let root = make_node node_region_base in
  {
    root;
    next_node_paddr = node_region_base + page_size;
    mapped_pages = 0;
    node_count = 1;
  }

(* VPN is split into [levels] fields of [index_bits]; level 0 is the root. *)
let index_at ~level vpn =
  vpn lsr ((levels - 1 - level) * index_bits) land (entries_per_node - 1)

let alloc_node t =
  let node = make_node t.next_node_paddr in
  t.next_node_paddr <- t.next_node_paddr + page_size;
  t.node_count <- t.node_count + 1;
  node

let map t ~vpn ~ppn =
  if vpn < 0 || ppn < 0 then invalid_arg "Page_table.map: negative page number";
  let rec go node level =
    let idx = index_at ~level vpn in
    if level = levels - 1 then begin
      if node.leaves.(idx) = -1 then t.mapped_pages <- t.mapped_pages + 1;
      node.leaves.(idx) <- ppn
    end
    else begin
      let child =
        match node.children.(idx) with
        | Some c -> c
        | None ->
            let c = alloc_node t in
            node.children.(idx) <- Some c;
            c
      in
      go child (level + 1)
    end
  in
  go t.root 0

let map_range t ~vaddr ~bytes ~paddr =
  if vaddr land (page_size - 1) <> 0 || paddr land (page_size - 1) <> 0 then
    invalid_arg "Page_table.map_range: unaligned range";
  if bytes < 0 then invalid_arg "Page_table.map_range: negative size";
  let pages = Gem_util.Mathx.ceil_div bytes page_size in
  for i = 0 to pages - 1 do
    map t ~vpn:(vpn_of_vaddr vaddr + i) ~ppn:(vpn_of_vaddr paddr + i)
  done

let unmap t ~vpn =
  if vpn < 0 then invalid_arg "Page_table.unmap: negative page number";
  let rec go node level =
    let idx = index_at ~level vpn in
    if level = levels - 1 then begin
      let ppn = node.leaves.(idx) in
      if ppn = -1 then None
      else begin
        node.leaves.(idx) <- -1;
        t.mapped_pages <- t.mapped_pages - 1;
        Some ppn
      end
    end
    else match node.children.(idx) with None -> None | Some c -> go c (level + 1)
  in
  go t.root 0

let pte_paddr node idx = node.paddr + (idx * 8)

let walk t ~vpn =
  let rec go node level acc =
    let idx = index_at ~level vpn in
    let acc = pte_paddr node idx :: acc in
    if level = levels - 1 then
      let ppn = node.leaves.(idx) in
      (List.rev acc, if ppn = -1 then None else Some ppn)
    else
      match node.children.(idx) with
      | None -> (List.rev acc, None)
      | Some child -> go child (level + 1) acc
  in
  go t.root 0 []

let translate t ~vaddr =
  match walk t ~vpn:(vpn_of_vaddr vaddr) with
  | _, None -> None
  | _, Some ppn -> Some ((ppn lsl page_bits) lor page_offset vaddr)

let mapped_pages t = t.mapped_pages
let node_count t = t.node_count

(* The full radix tree is serialized, including each node's physical base
   address: node allocation order determines the PTE addresses a hardware
   walk reads, so rebuilding the tree any other way would shift walk
   timing. Only populated slots are stored, as [index, child] and
   [index, ppn] pairs. *)
let slot what i =
  if i < 0 || i >= entries_per_node then
    Gem_util.Snap.fail "page-table %s index %d outside [0, %d)" what i entries_per_node;
  i

let populated f = List.filter_map f (List.init entries_per_node Fun.id)

let node =
  Gem_util.Snap.(
    fix (fun node ->
        obj
          ~init:(fun () -> make_node 0)
          [ update "p" int (fun n -> n.paddr) (fun n paddr -> { n with paddr });
            field "c" (list (pair int node))
              (fun n -> populated (fun i -> Option.map (fun c -> (i, c)) n.children.(i)))
              (fun n -> List.iter (fun (i, c) -> n.children.(slot "child" i) <- Some c));
            field "l" (list (pair int int))
              (fun n ->
                populated (fun i -> if n.leaves.(i) = -1 then None else Some (i, n.leaves.(i))))
              (fun n -> List.iter (fun (i, ppn) -> n.leaves.(slot "leaf" i) <- ppn)) ]))

let codec =
  Gem_util.Snap.(
    obj
      [ field "root" node (fun t -> t.root) (fun t root ->
            if root.paddr <> t.root.paddr then
              fail "root node at %#x, this table's at %#x" root.paddr t.root.paddr;
            Array.blit root.children 0 t.root.children 0 entries_per_node;
            Array.blit root.leaves 0 t.root.leaves 0 entries_per_node);
        field "next_node_paddr" int (fun t -> t.next_node_paddr) (fun t v ->
            t.next_node_paddr <- v);
        field "mapped_pages" int (fun t -> t.mapped_pages) (fun t v -> t.mapped_pages <- v);
        field "node_count" int (fun t -> t.node_count) (fun t v -> t.node_count <- v) ])
