let ceil_div a b =
  if b <= 0 then invalid_arg "Mathx.ceil_div: non-positive divisor";
  if a < 0 then invalid_arg "Mathx.ceil_div: negative dividend";
  (a + b - 1) / b

type ceil_memo = { divisor : int; mutable last : int; mutable quot : int }

let ceil_memo divisor = { divisor; last = min_int; quot = 0 }

let ceil_div_memo m a =
  if a <> m.last then begin
    m.quot <- ceil_div a m.divisor;
    m.last <- a
  end;
  m.quot

let round_up a b = ceil_div a b * b

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* Top-level so a call builds no closure over [n]. *)
let rec log2_ceil_go n k p = if p >= n then k else log2_ceil_go n (k + 1) (p * 2)

let log2_ceil n =
  if n < 1 then invalid_arg "Mathx.log2_ceil";
  log2_ceil_go n 0 1

let log2_exact n =
  if not (is_pow2 n) then invalid_arg "Mathx.log2_exact: not a power of two";
  log2_ceil n

let clamp ~lo ~hi x = if x < lo then lo else if x > hi then hi else x

let rows_within ~lo ~hi ~first ~stride ~n =
  if n <= 0 || first < lo || first > hi then 0
  else
    let fit =
      if stride > 0 then ((hi - first) / stride) + 1
      else if stride < 0 then ((first - lo) / -stride) + 1
      else n
    in
    if fit < n then fit else n

let imax3 a b c = Int.max a (Int.max b c)

let sum_list = List.fold_left ( + ) 0
let sum_listf = List.fold_left ( +. ) 0.

let pct part whole = if whole = 0. then 0. else 100. *. part /. whole

let ratio a b = if b = 0. then 0. else a /. b
