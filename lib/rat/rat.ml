(* Exact rationals in canonical form: den > 0, gcd(num, den) = 1. *)

module B = Bigint

type t = { num : B.t; den : B.t }

let is_pow2 n = B.sign n > 0 && B.numbits n - 1 = B.trailing_zeros n

let canon num den =
  let s = B.sign den in
  if s = 0 then raise Division_by_zero;
  let num, den = if s < 0 then (B.neg num, B.neg den) else (num, den) in
  if B.is_zero num then { num = B.zero; den = B.one }
  else if B.is_one den then { num; den }
  else if is_pow2 den then begin
    (* Dyadic fast path: gcd with 2^k needs only trailing-zero counts.
       Most values flowing through the pipeline (doubles, monomials of
       dyadic reduced inputs) hit this case. *)
    let k = B.numbits den - 1 in
    let t = Stdlib.min k (B.trailing_zeros num) in
    if t = 0 then { num; den }
    else { num = B.shift_right num t; den = B.shift_right den t }
  end
  else
    let g = B.gcd num den in
    if B.is_one g then { num; den }
    else { num = B.div num g; den = B.div den g }

let make num den = canon num den
let of_bigint n = { num = n; den = B.one }
let of_int n = of_bigint (B.of_int n)
let of_ints a b = canon (B.of_int a) (B.of_int b)

let zero = of_int 0
let one = of_int 1
let two = of_int 2
let half = of_ints 1 2
let minus_one = of_int (-1)

let num q = q.num
let den q = q.den
let sign q = B.sign q.num
let is_zero q = B.is_zero q.num
let is_integer q = B.is_one q.den

let equal a b = B.equal a.num b.num && B.equal a.den b.den

let compare a b =
  let sa = sign a and sb = sign b in
  if sa <> sb then Stdlib.compare sa sb
  else B.compare (B.mul a.num b.den) (B.mul b.num a.den)

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let neg q = { q with num = B.neg q.num }
let abs q = if sign q < 0 then neg q else q

(* A zero operand needs no gcd: the other operand is already canonical. *)
let add a b =
  if B.is_zero a.num then b
  else if B.is_zero b.num then a
  else if B.equal a.den b.den then canon (B.add a.num b.num) a.den
  else canon (B.add (B.mul a.num b.den) (B.mul b.num a.den)) (B.mul a.den b.den)

let sub a b = add a (neg b)

(* A zero operand or two integers need no gcd either. *)
let mul a b =
  if B.is_zero a.num || B.is_zero b.num then zero
  else if B.is_one a.den && B.is_one b.den then
    { num = B.mul a.num b.num; den = B.one }
  else begin
    (* Cross-reduce before multiplying to keep intermediates small. *)
    let g1 = B.gcd a.num b.den and g2 = B.gcd b.num a.den in
    let n1 = if B.is_one g1 then a.num else B.div a.num g1 in
    let d2 = if B.is_one g1 then b.den else B.div b.den g1 in
    let n2 = if B.is_one g2 then b.num else B.div b.num g2 in
    let d1 = if B.is_one g2 then a.den else B.div a.den g2 in
    { num = B.mul n1 n2; den = B.mul d1 d2 }
  end

let inv q =
  if is_zero q then raise Division_by_zero;
  if B.sign q.num < 0 then { num = B.neg q.den; den = B.neg q.num }
  else { num = q.den; den = q.num }

let div a b = mul a (inv b)

let pow q n =
  let p k = { num = B.pow q.num k; den = B.pow q.den k } in
  if n >= 0 then p n else inv (p (-n))

let mul_pow2 q k =
  if is_zero q || k = 0 then q
  else if k > 0 then begin
    (* den is odd after removing its factor of 2^t. *)
    let t = if B.is_even q.den then B.trailing_zeros q.den else 0 in
    let cancel = Stdlib.min t k in
    { num = B.shift_left q.num (k - cancel); den = B.shift_right q.den cancel }
  end
  else begin
    let k = -k in
    let t = if B.is_even q.num then B.trailing_zeros q.num else 0 in
    let cancel = Stdlib.min t k in
    { num = B.shift_right q.num cancel; den = B.shift_left q.den (k - cancel) }
  end

let floor q = B.fdiv q.num q.den
let ceil q = B.cdiv q.num q.den
let trunc q = B.div q.num q.den

(* ---------- conversion with doubles ---------- *)

let of_float x =
  if not (Float.is_finite x) then invalid_arg "Rat.of_float: not finite";
  if x = 0.0 then zero
  else begin
    let m, e = Float.frexp x in
    (* m in [0.5, 1); m * 2^53 is an exact integer. *)
    let mi = Float.to_int (Float.ldexp m 53) in
    mul_pow2 (of_int mi) (e - 53)
  end

(* [approx q ~bits]: floor of |q| scaled to exactly [bits] significant bits,
   plus exactness flag.  See the interface for the contract. *)
let approx q ~bits =
  if is_zero q then invalid_arg "Rat.approx: zero";
  if bits <= 0 then invalid_arg "Rat.approx: bits <= 0";
  let n = B.abs q.num and d = q.den in
  if is_pow2 d then begin
    (* Dyadic fast path, as in [canon]: |q| = n * 2^-k, so m is n shifted
       to [bits] bits and exactness is a trailing-zero count. *)
    let s = B.numbits n - bits in
    let e = s - (B.numbits d - 1) in
    if s <= 0 then (B.shift_left n (-s), e, true)
    else (B.shift_right n s, e, B.trailing_zeros n >= s)
  end
  else
  let k = B.numbits n - B.numbits d in
  (* 2^(k-1) <= |q| < 2^(k+1); target m in [2^(bits-1), 2^bits). *)
  let attempt e =
    let m =
      if e >= 0 then B.fdiv n (B.shift_left d e)
      else B.fdiv (B.shift_left n (-e)) d
    in
    (m, e)
  in
  let m, e =
    let m, e = attempt (k - bits) in
    if B.numbits m > bits then attempt (k - bits + 1)
    else if B.numbits m < bits then attempt (k - bits - 1)
    else (m, e)
  in
  assert (B.numbits m = bits);
  let exact =
    let back = mul_pow2 (of_bigint m) e in
    equal back (abs q)
  in
  (m, e, exact)

type round_dir = Down | Up | Nearest | Zero

(* Correctly rounded conversion to IEEE binary64 (any direction), with
   gradual underflow and overflow handling. *)
let to_float_dir dir q =
  if is_zero q then 0.0
  else begin
    let neg = sign q < 0 in
    let qa = abs q in
    (* Direction relative to the magnitude. *)
    let mag_dir =
      match dir with
      | Nearest -> `Nearest
      | Zero -> `Down
      | Down -> if neg then `Up else `Down
      | Up -> if neg then `Down else `Up
    in
    let m, e, exact = approx qa ~bits:54 in
    (* Value = (m + eps) * 2^e with 0 <= eps < 1, eps > 0 iff not exact.
       The exponent of the value is e + 53 (since 2^53 <= m < 2^54). *)
    let value_exp = e + 53 in
    (* Available precision: 53 bits for normal values, fewer inside the
       subnormal range.  [prec] may go negative for values far below the
       smallest subnormal; the arithmetic below still yields the fixed
       quantum 2^-1074 because e + drop = -1074 whenever prec < 53. *)
    let prec = if value_exp < -1022 then 53 - (-1022 - value_exp) else 53 in
    let drop = 54 - prec in
    let kept = B.shift_right m drop in
    (* [low_zero k] tells whether bits [0, k) of m are all zero. *)
    let low_zero k =
      k <= 0 || B.equal (B.shift_left (B.shift_right m k) k) m
    in
    let rounded =
      match mag_dir with
      | `Down -> kept
      | `Up -> if exact && low_zero drop then kept else B.succ kept
      | `Nearest ->
          let rbit = drop <= B.numbits m && B.testbit m (drop - 1) in
          let sticky = (not exact) || not (low_zero (drop - 1)) in
          if rbit && (sticky || B.is_odd kept) then B.succ kept else kept
    in
    let result_mag = Float.ldexp (B.to_float rounded) (e + drop) in
    (* ldexp overflows to infinity exactly when the rounded magnitude is
       >= 2^1024; for the directed-down case the correct answer is the
       largest finite double. *)
    let result_mag =
      if result_mag = Float.infinity && mag_dir = `Down then Float.max_float
      else result_mag
    in
    if neg then -.result_mag else result_mag
  end

let to_float q = to_float_dir Nearest q

(* ---------- strings ---------- *)

let to_string q =
  if is_integer q then B.to_string q.num
  else B.to_string q.num ^ "/" ^ B.to_string q.den

let of_string s =
  match String.index_opt s '/' with
  | Some i ->
      let n = B.of_string (String.sub s 0 i) in
      let d = B.of_string (String.sub s (i + 1) (String.length s - i - 1)) in
      make n d
  | None -> (
      (* Integer or decimal/scientific literal. *)
      let mantissa, exp10 =
        match String.index_opt s 'e' with
        | Some i -> (String.sub s 0 i, int_of_string (String.sub s (i + 1) (String.length s - i - 1)))
        | None -> (
            match String.index_opt s 'E' with
            | Some i ->
                (String.sub s 0 i, int_of_string (String.sub s (i + 1) (String.length s - i - 1)))
            | None -> (s, 0))
      in
      match String.index_opt mantissa '.' with
      | None ->
          mul (of_bigint (B.of_string mantissa)) (pow (of_int 10) exp10)
      | Some i ->
          let int_part = String.sub mantissa 0 i in
          let frac = String.sub mantissa (i + 1) (String.length mantissa - i - 1) in
          let digits = String.length frac in
          let whole = B.of_string (int_part ^ frac) in
          mul (of_bigint whole) (pow (of_int 10) (exp10 - digits)))

let to_decimal_string ~digits q =
  let neg = sign q < 0 in
  let qa = abs q in
  let ip = B.fdiv qa.num qa.den in
  let frac = sub qa (of_bigint ip) in
  let scaled = trunc (mul frac (pow (of_int 10) digits)) in
  let fs = B.to_string scaled in
  let fs = String.make (Stdlib.max 0 (digits - String.length fs)) '0' ^ fs in
  let body =
    if digits = 0 then B.to_string ip else B.to_string ip ^ "." ^ fs
  in
  if neg && not (is_zero q) then "-" ^ body else body

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( ~- ) = neg
  let ( = ) = equal
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
  let ( <> ) a b = not (equal a b)
end
