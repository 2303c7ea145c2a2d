let int8_min = -128
let int8_max = 127
let int32_min = -0x8000_0000
let int32_max = 0x7FFF_FFFF

let sat8 x = Mathx.clamp ~lo:int8_min ~hi:int8_max x
let sat32 x = Mathx.clamp ~lo:int32_min ~hi:int32_max x

let mac32 ~acc a b = sat32 (acc + (a * b))

(* Round-half-to-even division by 2^s, matching the RTL's rounding adder:
   add half the divisor, then adjust ties so the result is even. *)
let rounding_shift x s =
  if s < 0 then invalid_arg "Fixed.rounding_shift: negative shift";
  if s = 0 then x
  else begin
    let div = 1 lsl s in
    let half = div / 2 in
    let q = (x + half) asr s in
    let rem = x - ((x asr s) lsl s) in
    (* Tie (remainder exactly half): round to even. *)
    if rem = half && q land 1 = 1 then q - 1 else q
  end

let relu x = max x 0

let relu6 ~shift x =
  if shift < 0 then invalid_arg "Fixed.relu6: negative shift";
  Mathx.clamp ~lo:0 ~hi:(6 lsl shift) x
