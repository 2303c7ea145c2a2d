(* gem_util: math, RNG, statistics, tables, fixed-point, matrices, tensors. *)

open Gem_util

let test_mathx () =
  Alcotest.(check int) "ceil_div exact" 4 (Mathx.ceil_div 16 4);
  Alcotest.(check int) "ceil_div round" 5 (Mathx.ceil_div 17 4);
  Alcotest.(check int) "round_up" 20 (Mathx.round_up 17 4);
  Alcotest.(check bool) "pow2 yes" true (Mathx.is_pow2 64);
  Alcotest.(check bool) "pow2 no" false (Mathx.is_pow2 48);
  Alcotest.(check bool) "pow2 zero" false (Mathx.is_pow2 0);
  Alcotest.(check int) "log2_ceil" 7 (Mathx.log2_ceil 65);
  Alcotest.(check int) "log2_exact" 6 (Mathx.log2_exact 64);
  Alcotest.check_raises "log2_exact rejects" (Invalid_argument "Mathx.log2_exact: not a power of two")
    (fun () -> ignore (Mathx.log2_exact 48));
  Alcotest.(check int) "clamp low" 0 (Mathx.clamp ~lo:0 ~hi:10 (-5));
  Alcotest.(check int) "clamp high" 10 (Mathx.clamp ~lo:0 ~hi:10 15)

let qcheck_ceil_div =
  QCheck2.Test.make ~name:"ceil_div is minimal cover" ~count:200
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 1 1000))
    (fun (a, b) ->
      let q = Mathx.ceil_div a b in
      q * b >= a && (q - 1) * b < a)

(* The page-run and line-run lengths: the O(1) count must equal a scan
   that stops at the first row outside [lo, hi], whatever the stride's
   sign, with the first row inside, outside or on either end. *)
let qcheck_rows_within =
  QCheck2.Test.make ~name:"rows_within equals a row scan" ~count:500
    QCheck2.Gen.(
      let* lo = int_range 0 200 in
      let* extent = int_range (-4) 80 in
      let* first = int_range (lo - 10) (lo + extent + 10) in
      let* stride = int_range (-40) 40 in
      let* n = int_range 0 70 in
      return (lo, lo + extent, first, stride, n))
    (fun (lo, hi, first, stride, n) ->
      let rec scan j =
        let a = first + (j * stride) in
        if j < n && lo <= a && a <= hi then scan (j + 1) else j
      in
      Mathx.rows_within ~lo ~hi ~first ~stride ~n = scan 0)

let test_rng_determinism () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done;
  let c = Rng.create ~seed:8 in
  let differs = ref false in
  for _ = 1 to 20 do
    if Rng.int a 1_000_000 <> Rng.int c 1_000_000 then differs := true
  done;
  Alcotest.(check bool) "different seed differs" true !differs

let qcheck_rng_bounds =
  QCheck2.Test.make ~name:"int_in stays in range" ~count:500
    QCheck2.Gen.(triple (int_range 0 10000) (int_range (-500) 500) (int_range 0 500))
    (fun (seed, lo, span) ->
      let rng = Rng.create ~seed in
      let hi = lo + span in
      let v = Rng.int_in rng ~lo ~hi in
      v >= lo && v <= hi)

let test_running_stats () =
  let r = Stats.Running.create () in
  List.iter (Stats.Running.add r) [ 2.; 4.; 6.; 8. ];
  Alcotest.(check (float 1e-9)) "mean" 5. (Stats.Running.mean r);
  Alcotest.(check (float 1e-9)) "min" 2. (Stats.Running.min r);
  Alcotest.(check (float 1e-9)) "max" 8. (Stats.Running.max r);
  Alcotest.(check (float 1e-9)) "total" 20. (Stats.Running.total r);
  Alcotest.(check (float 1e-6)) "variance" (20. /. 3.) (Stats.Running.variance r)

let qcheck_running_merge =
  QCheck2.Test.make ~name:"Running.merge == concatenated stream" ~count:100
    QCheck2.Gen.(pair (list_size (int_range 1 50) (float_range (-100.) 100.))
                   (list_size (int_range 1 50) (float_range (-100.) 100.)))
    (fun (xs, ys) ->
      let a = Stats.Running.create () and b = Stats.Running.create () in
      let c = Stats.Running.create () in
      List.iter (Stats.Running.add a) xs;
      List.iter (Stats.Running.add b) ys;
      List.iter (Stats.Running.add c) (xs @ ys);
      let m = Stats.Running.merge a b in
      abs_float (Stats.Running.mean m -. Stats.Running.mean c) < 1e-6
      && Stats.Running.count m = Stats.Running.count c
      && abs_float (Stats.Running.variance m -. Stats.Running.variance c) < 1e-4)

let test_series () =
  let s = Stats.Series.create ~window:10. in
  Stats.Series.add s ~time:1. 1.0;
  Stats.Series.add s ~time:5. 0.0;
  Stats.Series.add s ~time:15. 1.0;
  let w = Stats.Series.windows s in
  Alcotest.(check int) "two windows" 2 (Array.length w);
  Alcotest.(check (float 1e-9)) "first mean" 0.5 (snd w.(0));
  Alcotest.(check (float 1e-9)) "second mean" 1.0 (snd w.(1))

let test_histogram () =
  let h = Stats.Histogram.create ~buckets:10 ~range:100. in
  for i = 0 to 99 do
    Stats.Histogram.add h (float_of_int i)
  done;
  Alcotest.(check int) "count" 100 (Stats.Histogram.count h);
  let p50 = Stats.Histogram.percentile h 50. in
  Alcotest.(check bool) "median near 50" true (p50 > 35. && p50 < 65.)

(* Regression: a histogram reused across measurement runs must reset in
   between, or the second run's percentiles smear both sample sets. *)
let test_histogram_reset () =
  let h = Stats.Histogram.create ~buckets:10 ~range:100. in
  for _ = 1 to 50 do
    Stats.Histogram.add h 90.
  done;
  Stats.Histogram.reset h;
  Alcotest.(check int) "empty after reset" 0 (Stats.Histogram.count h);
  Alcotest.(check bool) "max cleared" true
    (Float.is_nan (Stats.Histogram.max h));
  Alcotest.(check bool) "buckets cleared" true
    (Array.for_all (fun c -> c = 0) (Stats.Histogram.bucket_counts h));
  for _ = 1 to 10 do
    Stats.Histogram.add h 10.
  done;
  (* With the stale 90s still counted this would sit near 90. *)
  Alcotest.(check bool) "fresh percentiles" true
    (Stats.Histogram.percentile h 99. < 50.);
  Alcotest.(check (float 1e-9)) "fresh max" 10. (Stats.Histogram.max h)

let test_histogram_merge () =
  let mk samples =
    let h = Stats.Histogram.create ~buckets:10 ~range:100. in
    List.iter (Stats.Histogram.add h) samples;
    h
  in
  (* Merging an empty histogram is the identity on every observable. *)
  let a = mk [ 5.; 15.; 95. ] and empty = mk [] in
  let m = Stats.Histogram.merge a empty in
  Alcotest.(check int) "empty right: count" 3 (Stats.Histogram.count m);
  Alcotest.(check (float 1e-9)) "empty right: max" 95. (Stats.Histogram.max m);
  Alcotest.(check (array int)) "empty right: buckets"
    (Stats.Histogram.bucket_counts a)
    (Stats.Histogram.bucket_counts m);
  let m = Stats.Histogram.merge empty a in
  Alcotest.(check int) "empty left: count" 3 (Stats.Histogram.count m);
  Alcotest.(check (float 1e-9)) "empty left: max" 95. (Stats.Histogram.max m);
  let m = Stats.Histogram.merge empty (mk []) in
  Alcotest.(check int) "both empty: count" 0 (Stats.Histogram.count m);
  Alcotest.(check bool) "both empty: max nan" true
    (Float.is_nan (Stats.Histogram.max m));
  (* Disjoint sample ranges: the merge sees both populations and equals a
     histogram fed the union. *)
  let low = mk [ 5.; 6.; 7. ] and high = mk [ 85.; 95. ] in
  let m = Stats.Histogram.merge low high in
  let union = mk [ 5.; 6.; 7.; 85.; 95. ] in
  Alcotest.(check int) "disjoint: count" 5 (Stats.Histogram.count m);
  Alcotest.(check (array int)) "disjoint: buckets"
    (Stats.Histogram.bucket_counts union)
    (Stats.Histogram.bucket_counts m);
  Alcotest.(check (float 1e-9)) "disjoint: max" 95. (Stats.Histogram.max m);
  Alcotest.(check (float 1e-9)) "disjoint: p99 matches union"
    (Stats.Histogram.percentile union 99.)
    (Stats.Histogram.percentile m 99.);
  (* Overlapping ranges accumulate bucket-wise. *)
  let x = mk [ 10.; 20.; 30. ] and y = mk [ 15.; 25.; 90. ] in
  let m = Stats.Histogram.merge x y in
  let union = mk [ 10.; 20.; 30.; 15.; 25.; 90. ] in
  Alcotest.(check int) "overlap: count" 6 (Stats.Histogram.count m);
  Alcotest.(check (array int)) "overlap: buckets"
    (Stats.Histogram.bucket_counts union)
    (Stats.Histogram.bucket_counts m);
  Alcotest.(check (float 1e-9)) "overlap: p50 matches union"
    (Stats.Histogram.percentile union 50.)
    (Stats.Histogram.percentile m 50.);
  (* Merge never mutates its inputs. *)
  Alcotest.(check int) "left untouched" 3 (Stats.Histogram.count x);
  Alcotest.(check int) "right untouched" 3 (Stats.Histogram.count y);
  (* Shape mismatches are programming errors, caught loudly. *)
  Alcotest.check_raises "bucket mismatch"
    (Invalid_argument "Histogram.merge: bucket counts differ") (fun () ->
      ignore
        (Stats.Histogram.merge x
           (Stats.Histogram.create ~buckets:4 ~range:100.)));
  Alcotest.check_raises "range mismatch"
    (Invalid_argument "Histogram.merge: ranges differ") (fun () ->
      ignore
        (Stats.Histogram.merge x
           (Stats.Histogram.create ~buckets:10 ~range:50.)))

let test_table_render () =
  let t = Table.create ~title:"T" [ "a"; "bb" ] in
  Table.set_align t 1 Table.Right;
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "long"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "contains title" true (String.length s > 0 && String.sub s 0 1 = "T");
  Alcotest.(check bool) "right aligned" true
    (let lines = String.split_on_char '\n' s in
     List.exists (fun l -> l = "| x    |  1 |") lines)

let test_fmt () =
  Alcotest.(check string) "thousands" "1,234,567" (Table.fmt_int 1234567);
  Alcotest.(check string) "negative" "-1,000" (Table.fmt_int (-1000));
  Alcotest.(check string) "bytes kb" "256 KB" (Table.fmt_bytes (256 * 1024));
  Alcotest.(check string) "bytes mb" "2 MB" (Table.fmt_bytes (2 * 1024 * 1024));
  Alcotest.(check string) "speedup" "2670x" (Table.fmt_x 2670.)

let test_fixed () =
  Alcotest.(check int) "sat8 high" 127 (Fixed.sat8 1000);
  Alcotest.(check int) "sat8 low" (-128) (Fixed.sat8 (-1000));
  Alcotest.(check int) "mac32 saturates" Fixed.int32_max
    (Fixed.mac32 ~acc:Fixed.int32_max 10 10);
  Alcotest.(check int) "rounding_shift half-even down" 2 (Fixed.rounding_shift 5 1);
  Alcotest.(check int) "rounding_shift half-even up" 2 (Fixed.rounding_shift 3 1);
  Alcotest.(check int) "relu" 0 (Fixed.relu (-5));
  Alcotest.(check int) "relu6" 6 (Fixed.relu6 ~shift:0 100)

let qcheck_rounding_shift =
  QCheck2.Test.make ~name:"rounding_shift within 1/2 ulp" ~count:300
    QCheck2.Gen.(pair (int_range (-100000) 100000) (int_range 1 8))
    (fun (x, s) ->
      let q = Fixed.rounding_shift x s in
      let exact = float_of_int x /. float_of_int (1 lsl s) in
      abs_float (float_of_int q -. exact) <= 0.5 +. 1e-9)

let qcheck_matrix_transpose =
  QCheck2.Test.make ~name:"transpose involutive" ~count:100
    QCheck2.Gen.(triple (int_range 1 12) (int_range 1 12) (int_range 0 10000))
    (fun (r, c, seed) ->
      let rng = Rng.create ~seed in
      let m = Matrix.random rng ~rows:r ~cols:c ~lo:(-50) ~hi:50 in
      Matrix.equal m (Matrix.transpose (Matrix.transpose m)))

let qcheck_matmul_assoc_dims =
  QCheck2.Test.make ~name:"mul dims and identity" ~count:100
    QCheck2.Gen.(triple (int_range 1 8) (int_range 1 8) (int_range 0 1000))
    (fun (n, k, seed) ->
      let rng = Rng.create ~seed in
      let a = Matrix.random rng ~rows:n ~cols:k ~lo:(-10) ~hi:10 in
      let id = Matrix.init ~rows:k ~cols:k (fun r c -> if r = c then 1 else 0) in
      Matrix.equal a (Matrix.mul a id))

let test_tensor () =
  let t = Tensor.create [| 2; 3; 4 |] in
  Alcotest.(check int) "elems" 24 (Tensor.num_elems t);
  Tensor.set t [| 1; 2; 3 |] 42;
  Alcotest.(check int) "get/set" 42 (Tensor.get t [| 1; 2; 3 |]);
  let r = Tensor.reshape t [| 6; 4 |] in
  Alcotest.(check int) "reshape shares" 42 (Tensor.get r [| 5; 3 |]);
  Alcotest.check_raises "bad reshape"
    (Invalid_argument "Tensor.reshape: element count mismatch") (fun () ->
      ignore (Tensor.reshape t [| 5; 5 |]));
  let m = Matrix.of_lists [ [ 1; 2 ]; [ 3; 4 ] ] in
  Alcotest.(check bool) "matrix roundtrip" true
    (Matrix.equal m (Tensor.to_matrix (Tensor.of_matrix m)))

let suite =
  [
    Alcotest.test_case "mathx" `Quick test_mathx;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "running stats" `Quick test_running_stats;
    Alcotest.test_case "series windows" `Quick test_series;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "histogram reset" `Quick test_histogram_reset;
    Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
    Alcotest.test_case "table rendering" `Quick test_table_render;
    Alcotest.test_case "formatting" `Quick test_fmt;
    Alcotest.test_case "fixed point" `Quick test_fixed;
    Alcotest.test_case "tensor" `Quick test_tensor;
    QCheck_alcotest.to_alcotest qcheck_ceil_div;
    QCheck_alcotest.to_alcotest qcheck_rows_within;
    QCheck_alcotest.to_alcotest qcheck_rng_bounds;
    QCheck_alcotest.to_alcotest qcheck_running_merge;
    QCheck_alcotest.to_alcotest qcheck_rounding_shift;
    QCheck_alcotest.to_alcotest qcheck_matrix_transpose;
    QCheck_alcotest.to_alcotest qcheck_matmul_assoc_dims;
  ]
