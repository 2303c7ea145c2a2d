module Running = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable mn : float;
    mutable mx : float;
    mutable total : float;
  }

  let create () = { n = 0; mean = 0.; m2 = 0.; mn = nan; mx = nan; total = 0. }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    t.total <- t.total +. x;
    if t.n = 1 then begin
      t.mn <- x;
      t.mx <- x
    end
    else begin
      if x < t.mn then t.mn <- x;
      if x > t.mx then t.mx <- x
    end

  let count t = t.n
  let mean t = if t.n = 0 then nan else t.mean
  let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)
  let min t = t.mn
  let max t = t.mx
  let total t = t.total

  let merge a b =
    if a.n = 0 then { b with n = b.n }
    else if b.n = 0 then { a with n = a.n }
    else begin
      let n = a.n + b.n in
      let delta = b.mean -. a.mean in
      let mean = a.mean +. (delta *. float_of_int b.n /. float_of_int n) in
      let m2 =
        a.m2 +. b.m2
        +. (delta *. delta *. float_of_int a.n *. float_of_int b.n /. float_of_int n)
      in
      {
        n;
        mean;
        m2;
        mn = Stdlib.min a.mn b.mn;
        mx = Stdlib.max a.mx b.mx;
        total = a.total +. b.total;
      }
    end
end

module Counter = struct
  type t = { name : string; mutable value : int }

  let create name = { name; value = 0 }
  let name t = t.name
  let incr t = t.value <- t.value + 1
  let add t n = t.value <- t.value + n
  let get t = t.value
  let reset t = t.value <- 0
end

let hit_rate ~hits ~total =
  if total = 0 then 0. else float_of_int hits /. float_of_int total

module Histogram = struct
  type t = {
    counts : int array;
    range : float;
    mutable n : int;
    mutable raw_max : float;
  }

  type summary = { p50 : float; p95 : float; p99 : float; max : float }

  let create ~buckets ~range =
    if buckets <= 0 then invalid_arg "Histogram.create: buckets <= 0";
    if range <= 0. then invalid_arg "Histogram.create: range <= 0";
    { counts = Array.make buckets 0; range; n = 0; raw_max = nan }

  let of_counts ~range ~max counts =
    if Array.length counts = 0 || range <= 0. then
      invalid_arg "Histogram.of_counts";
    let n = Array.fold_left ( + ) 0 counts in
    let raw_max = if n = 0 then nan else max in
    { counts = Array.copy counts; range; n; raw_max }

  let bucket_of t x =
    let b = int_of_float (x /. t.range *. float_of_int (Array.length t.counts)) in
    Mathx.clamp ~lo:0 ~hi:(Array.length t.counts - 1) b

  let add t x =
    let b = bucket_of t x in
    t.counts.(b) <- t.counts.(b) + 1;
    if t.n = 0 || x > t.raw_max then t.raw_max <- x;
    t.n <- t.n + 1

  let bucket_counts t = Array.copy t.counts
  let count t = t.n
  let max t = t.raw_max

  (* Percentile state accumulates monotonically; a histogram reused across
     measurement runs (e.g. one serving scenario after another) must be
     reset in between or the summaries smear samples from both runs. *)
  let reset t =
    Array.fill t.counts 0 (Array.length t.counts) 0;
    t.n <- 0;
    t.raw_max <- nan

  let percentile t p =
    if t.n = 0 then nan
    else begin
      let target = p /. 100. *. float_of_int t.n in
      let buckets = Array.length t.counts in
      let width = t.range /. float_of_int buckets in
      let rec go i seen =
        if i >= buckets then t.range
        else
          let seen' = seen + t.counts.(i) in
          if float_of_int seen' >= target then (float_of_int i +. 0.5) *. width
          else go (i + 1) seen'
      in
      go 0 0
    end

  let summary t =
    {
      p50 = percentile t 50.;
      p95 = percentile t 95.;
      p99 = percentile t 99.;
      max = t.raw_max;
    }

  (* Bucket-wise sum: only meaningful when both histograms were built
     with the same geometry (per-core serving latency histograms are).
     raw_max needs the nan dance — an empty histogram's max is nan, and
     nan must lose to any real sample from the other side. *)
  let merge a b =
    if Array.length a.counts <> Array.length b.counts then
      invalid_arg "Histogram.merge: bucket counts differ";
    if a.range <> b.range then invalid_arg "Histogram.merge: ranges differ";
    let counts = Array.mapi (fun i c -> c + b.counts.(i)) a.counts in
    let raw_max =
      if a.n = 0 then b.raw_max
      else if b.n = 0 then a.raw_max
      else Float.max a.raw_max b.raw_max
    in
    { counts; range = a.range; n = a.n + b.n; raw_max }
end

module Series = struct
  type window = { mutable sum : float; mutable n : int }

  type t = { window : float; tbl : (int, window) Hashtbl.t }

  let create ~window =
    if window <= 0. then invalid_arg "Series.create: window <= 0";
    { window; tbl = Hashtbl.create 64 }

  let add t ~time x =
    let key = int_of_float (time /. t.window) in
    match Hashtbl.find_opt t.tbl key with
    | Some w ->
        w.sum <- w.sum +. x;
        w.n <- w.n + 1
    | None -> Hashtbl.add t.tbl key { sum = x; n = 1 }

  let sorted t =
    let items = Hashtbl.fold (fun k w acc -> (k, w) :: acc) t.tbl [] in
    List.sort (fun (a, _) (b, _) -> compare a b) items

  let windows t =
    sorted t
    |> List.map (fun (k, w) ->
           (float_of_int k *. t.window, w.sum /. float_of_int w.n))
    |> Array.of_list

  let window_totals t =
    sorted t
    |> List.map (fun (k, w) -> (float_of_int k *. t.window, w.sum, w.n))
    |> Array.of_list
end
