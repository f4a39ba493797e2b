(* Outward-rounded fixed-point intervals in native integers.  See
   fixed.mli for the contract and the magnitude rules. *)

let frac_bits = 54

type t = { lo : int; hi : int }

(* |operand| bound of [mul], and the value bound of [of_dyadic]. *)
let mul_limit = 1 lsl 61

let make lo hi =
  if lo > hi then invalid_arg "Fixed.make: lo > hi";
  { lo; hi }

let of_int n =
  if abs n >= 1 lsl (62 - frac_bits) then invalid_arg "Fixed.of_int: range";
  let v = n lsl frac_bits in
  { lo = v; hi = v }

let of_dyadic m e =
  let s = e + frac_bits in
  if s >= 0 then
    if s >= 61 || abs m >= mul_limit asr s then None
    else
      let v = m lsl s in
      Some { lo = v; hi = v }
  else
    let sh = -s in
    if sh >= 62 then
      (* |m| < 2^62 <= 2^sh: the value lies strictly inside (-1, 1) ulps. *)
      Some { lo = (if m < 0 then -1 else 0); hi = (if m > 0 then 1 else 0) }
    else
      (* asr is a floor; the ceiling is the negated floor of -m. *)
      Some { lo = m asr sh; hi = -(-m asr sh) }

(* Schoolbook long division, as many quotient bits per step as keep the
   partial remainder (< d) shifted below 2^62. *)
let of_ratio n d =
  if n < 0 || d <= n || d >= 1 lsl 60 then invalid_arg "Fixed.of_ratio: range";
  let step = 62 - Bigint.int_numbits d in
  let rec go q r bits =
    if bits = 0 then (q, r)
    else
      let b = min step bits in
      let r = r lsl b in
      go ((q lsl b) + (r / d)) (r mod d) (bits - b)
  in
  let q, r = go 0 n frac_bits in
  { lo = q; hi = (if r = 0 then q else q + 1) }

let add a b = { lo = a.lo + b.lo; hi = a.hi + b.hi }
let sub a b = { lo = a.lo - b.hi; hi = a.hi - b.lo }

let m31 = (1 lsl 31) - 1
let frac_mask = (1 lsl frac_bits) - 1

(* floor (or ceiling, [up]) of u·v / 2^frac_bits for 0 <= u, v < 2^61.
   With u = u1·2^31 + u0 and v = v1·2^31 + v0 (u1, v1 < 2^30), every
   partial product and the middle sum stay below 2^62; the full product
   is top·2^62 + low with low < 2^62.  A result of 2^61 or more (value
   128) is refused, so the rounded-up quotient always fits. *)
let umul_shift u v ~up =
  let u1 = u lsr 31 and u0 = u land m31 in
  let v1 = v lsr 31 and v0 = v land m31 in
  let w0 = u0 * v0 in
  let mid = (u1 * v0) + (u0 * v1) + (w0 lsr 31) in
  let top = (u1 * v1) + (mid lsr 31) in
  if top >= 1 lsl (frac_bits - 1) then invalid_arg "Fixed.mul: overflow";
  let low = ((mid land m31) lsl 31) lor (w0 land m31) in
  let q = (top lsl (62 - frac_bits)) + (low lsr frac_bits) in
  if up && low land frac_mask <> 0 then q + 1 else q

(* Signed: floor(-p) = -ceil(p), so a negative product flips [up]. *)
let mul_shift x y ~up =
  let neg = x < 0 <> (y < 0) in
  let p = umul_shift (abs x) (abs y) ~up:(up <> neg) in
  if neg then -p else p

let check_operand a =
  if a.lo <= -mul_limit || a.hi >= mul_limit then
    invalid_arg "Fixed.mul: operand range"

let mul a b =
  check_operand a;
  check_operand b;
  if a.lo >= 0 && b.lo >= 0 then
    { lo = mul_shift a.lo b.lo ~up:false; hi = mul_shift a.hi b.hi ~up:true }
  else
    let lo x y = mul_shift x y ~up:false and hi x y = mul_shift x y ~up:true in
    {
      lo = min (min (lo a.lo b.lo) (lo a.lo b.hi)) (min (lo a.hi b.lo) (lo a.hi b.hi));
      hi = max (max (hi a.lo b.lo) (hi a.lo b.hi)) (max (hi a.hi b.lo) (hi a.hi b.hi));
    }

let mag a = max (abs a.lo) (abs a.hi)

let mul_int a k =
  if k <> 0 && mag a > max_int / abs k then invalid_arg "Fixed.mul_int: range";
  if k >= 0 then { lo = a.lo * k; hi = a.hi * k }
  else { lo = a.hi * k; hi = a.lo * k }

(* OCaml's [/] truncates toward zero; [mod] takes the dividend's sign. *)
let div_int a d =
  if d <= 0 then invalid_arg "Fixed.div_int: divisor";
  let fdiv n = if n mod d < 0 then (n / d) - 1 else n / d in
  let cdiv n = if n mod d > 0 then (n / d) + 1 else n / d in
  { lo = fdiv a.lo; hi = cdiv a.hi }

let widen a ~below ~above = { lo = a.lo - below; hi = a.hi + above }

let to_rats a ~scale =
  let r n = Rat.mul_pow2 (Rat.of_int n) (scale - frac_bits) in
  (r a.lo, r a.hi)
