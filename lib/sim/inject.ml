type target = Dma_error | Tlb_drop | Unmap

type t = {
  mutable seed : int;
  mutable rate : float;
  dma : Gem_util.Rng.t;
  tlb : Gem_util.Rng.t;
  unmap : Gem_util.Rng.t;
  mutable dma_fired : int;
  mutable tlb_fired : int;
  mutable unmap_fired : int;
}

let create ~seed ~rate () =
  let rate = Float.max 0.0 (Float.min 1.0 rate) in
  (* One independent stream per target: the per-target roll sequences are
     stable even when components roll at different relative frequencies. *)
  let root = Gem_util.Rng.create ~seed in
  let dma = Gem_util.Rng.split root in
  let tlb = Gem_util.Rng.split root in
  let unmap = Gem_util.Rng.split root in
  { seed; rate; dma; tlb; unmap; dma_fired = 0; tlb_fired = 0; unmap_fired = 0 }

let seed t = t.seed
let rate t = t.rate

let fire t target =
  let rng =
    match target with Dma_error -> t.dma | Tlb_drop -> t.tlb | Unmap -> t.unmap
  in
  let hit = Gem_util.Rng.float rng 1.0 < t.rate in
  if hit then begin
    match target with
    | Dma_error -> t.dma_fired <- t.dma_fired + 1
    | Tlb_drop -> t.tlb_fired <- t.tlb_fired + 1
    | Unmap -> t.unmap_fired <- t.unmap_fired + 1
  end;
  hit

let count t = function
  | Dma_error -> t.dma_fired
  | Tlb_drop -> t.tlb_fired
  | Unmap -> t.unmap_fired

let total t = t.dma_fired + t.tlb_fired + t.unmap_fired

module Snap = Gem_util.Snap

let codec =
  let rng key get =
    Snap.field key Snap.i64 (fun t -> Gem_util.Rng.state (get t)) (fun t v ->
        Gem_util.Rng.set_state (get t) v)
  in
  Snap.(
    obj
      ~init:(fun () -> create ~seed:0 ~rate:0. ())
      [ field "seed" int (fun t -> t.seed) (fun t v -> t.seed <- v);
        field "rate" float (fun t -> t.rate) (fun t v -> t.rate <- v);
        rng "dma" (fun t -> t.dma);
        rng "tlb" (fun t -> t.tlb);
        rng "unmap" (fun t -> t.unmap);
        field "dma_fired" int (fun t -> t.dma_fired) (fun t v -> t.dma_fired <- v);
        field "tlb_fired" int (fun t -> t.tlb_fired) (fun t v -> t.tlb_fired <- v);
        field "unmap_fired" int (fun t -> t.unmap_fired) (fun t v -> t.unmap_fired <- v) ])

let describe t =
  Printf.sprintf
    "inject seed=%d rate=%g: %d dma errors, %d tlb drops, %d unmaps" t.seed
    t.rate t.dma_fired t.tlb_fired t.unmap_fired
