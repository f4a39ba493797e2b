(* Parameterized software floating point on top of exact rationals.

   A pattern is stored in the low [width] bits of an int64 as
   [sign | biased exponent | fraction].  All arithmetic on the fields is
   done in native ints (width <= 63). *)

module B = Bigint

type fmt = { ebits : int; prec : int }

let make_fmt ~ebits ~prec =
  if ebits < 1 || ebits > 15 then invalid_arg "Softfp.make_fmt: ebits";
  if prec < 2 then invalid_arg "Softfp.make_fmt: prec";
  if 1 + ebits + prec - 1 > 63 then invalid_arg "Softfp.make_fmt: width > 63";
  { ebits; prec }

let binary16 = make_fmt ~ebits:5 ~prec:11
let bfloat16 = make_fmt ~ebits:8 ~prec:8
let binary32 = make_fmt ~ebits:8 ~prec:24
let fp34 = make_fmt ~ebits:8 ~prec:26

let with_extra_prec fmt k = make_fmt ~ebits:fmt.ebits ~prec:(fmt.prec + k)

let width fmt = 1 + fmt.ebits + fmt.prec - 1
let emax fmt = (1 lsl (fmt.ebits - 1)) - 1
let emin fmt = 1 - emax fmt
let bias fmt = emax fmt

type mode = RNE | RNA | RTZ | RTU | RTD | RTO

let all_standard_modes = [ RNE; RNA; RTZ; RTU; RTD ]

let mode_to_string = function
  | RNE -> "rn-even"
  | RNA -> "rn-away"
  | RTZ -> "rz"
  | RTU -> "ru"
  | RTD -> "rd"
  | RTO -> "ro"

type bits = int64

(* Field helpers, in native ints. *)
let fwidth fmt = fmt.prec - 1
let fmask fmt = (1 lsl fwidth fmt) - 1
let emask fmt = (1 lsl fmt.ebits) - 1

let to_fields fmt (b : bits) =
  let n = Int64.to_int b in
  let f = n land fmask fmt in
  let be = (n lsr fwidth fmt) land emask fmt in
  let s = (n lsr (width fmt - 1)) land 1 in
  (s, be, f)

let of_fields fmt s be f : bits =
  Int64.of_int ((s lsl (width fmt - 1)) lor (be lsl fwidth fmt) lor f)

let zero_bits _fmt : bits = 0L
let neg_zero_bits fmt = of_fields fmt 1 0 0
let inf_bits fmt ~neg = of_fields fmt (if neg then 1 else 0) (emask fmt) 0
let nan_bits fmt = of_fields fmt 0 (emask fmt) 1
let max_finite_bits fmt ~neg =
  of_fields fmt (if neg then 1 else 0) (emask fmt - 1) (fmask fmt)
let min_subnormal_bits fmt ~neg = of_fields fmt (if neg then 1 else 0) 0 1

type cls = Zero | Subnormal | Normal | Inf | NaN

let classify fmt b =
  let _, be, f = to_fields fmt b in
  if be = emask fmt then if f = 0 then Inf else NaN
  else if be = 0 then if f = 0 then Zero else Subnormal
  else Normal

let is_finite fmt b =
  match classify fmt b with Zero | Subnormal | Normal -> true | Inf | NaN -> false

let is_nan fmt b = classify fmt b = NaN
let sign_bit fmt b = let s, _, _ = to_fields fmt b in s = 1
let frac_odd _fmt (b : bits) = Int64.to_int b land 1 = 1

(* ---------- decode ---------- *)

(* The exact decode, kept apart from the native one below ([mant] and
   [expo]) so that each checks the other. *)
let to_rat fmt b =
  if not (is_finite fmt b) then invalid_arg "Softfp.to_rat: not finite";
  let s, be, f = to_fields fmt b in
  let v =
    if be = 0 then Rat.mul_pow2 (Rat.of_int f) (emin fmt - fwidth fmt)
    else
      Rat.mul_pow2
        (Rat.of_int ((1 lsl fwidth fmt) lor f))
        (be - bias fmt - fwidth fmt)
  in
  if s = 1 then Rat.neg v else v

(* A finite pattern's magnitude is [mant] * 2^[expo], in native ints. *)
let mant fmt be f = if be = 0 then f else (1 lsl fwidth fmt) lor f
let expo fmt be = (if be = 0 then emin fmt else be - bias fmt) - fwidth fmt

(* ---------- encode (correct rounding from an exact rational) ---------- *)

let overflow_bits fmt mode ~neg =
  match mode with
  | RNE | RNA -> inf_bits fmt ~neg
  | RTZ | RTO -> max_finite_bits fmt ~neg
  | RTU -> if neg then max_finite_bits fmt ~neg else inf_bits fmt ~neg
  | RTD -> if neg then inf_bits fmt ~neg else max_finite_bits fmt ~neg

let of_rat fmt mode q =
  if Rat.is_zero q then zero_bits fmt
  else begin
    let neg = Rat.sign q < 0 in
    let qa = Rat.abs q in
    let m, e, exact = Rat.approx qa ~bits:(fmt.prec + 1) in
    (* qa = (m + eps) * 2^e, 0 <= eps < 1; 2^prec <= m < 2^(prec+1). *)
    let value_exp = e + fmt.prec in
    let emin = emin fmt in
    let prec_avail =
      if value_exp < emin then fmt.prec - (emin - value_exp) else fmt.prec
    in
    let drop = fmt.prec + 1 - prec_avail in
    let kept = B.shift_right m drop in
    let low_zero k = k <= 0 || B.equal (B.shift_left (B.shift_right m k) k) m in
    let inexact = (not exact) || not (low_zero drop) in
    let rbit = drop >= 1 && drop <= B.numbits m && B.testbit m (drop - 1) in
    let sticky = (not exact) || not (low_zero (drop - 1)) in
    let incr =
      match mode with
      | RNE -> rbit && (sticky || B.is_odd kept)
      | RNA -> rbit
      | RTZ -> false
      | RTU -> inexact && not neg
      | RTD -> inexact && neg
      | RTO -> inexact && B.is_even kept
    in
    let kept = if incr then B.succ kept else kept in
    if B.is_zero kept then
      (if neg then neg_zero_bits fmt else zero_bits fmt)
    else begin
      let quantum = e + drop in
      let nb = B.numbits kept in
      let res_exp = nb + quantum - 1 in
      if res_exp > emax fmt then overflow_bits fmt mode ~neg
      else begin
        let s = if neg then 1 else 0 in
        let befrac =
          if res_exp < emin then
            (* Subnormal: quantum = emin - (prec-1) by construction, so the
               pattern's (exponent, fraction) group is just [kept]. *)
            B.to_int_exn kept
          else begin
            let shift = fmt.prec - nb in
            let mant =
              if shift >= 0 then B.shift_left kept shift
              else B.shift_right kept (-shift)
            in
            ((res_exp - emin) lsl fwidth fmt) + B.to_int_exn mant
          end
        in
        Int64.of_int ((s lsl (width fmt - 1)) lor befrac)
      end
    end
  end

(* ---------- encode (correct rounding from a native dyadic) ----------

   The same rounding as [of_rat], for a value m * 2^e whose significand
   fits a native int: every double and every finite pattern of a format
   (prec <= 61) is one.  Shifts and masks instead of Rat/Bigint — this is
   what exhaustive verification runs dozens of times per input. *)

let of_dyadic fmt mode ~neg m e =
  if m < 0 then invalid_arg "Softfp.of_dyadic: negative significand";
  if m = 0 then (if neg then neg_zero_bits fmt else zero_bits fmt)
  else begin
    let nb = B.int_numbits m in
    let emin = emin fmt in
    (* The value lies in [2^top, 2^(top+1)); the result's ulp is
       2^quantum, fixed at the subnormal quantum below emin. *)
    let top = nb - 1 + e in
    let quantum = (if top < emin then emin else top) - fmt.prec + 1 in
    let s = quantum - e in
    (* kept = floor (m * 2^e / 2^quantum); rbit is the first dropped bit,
       sticky whether any later one is set.  s <= 0 is exact (and keeps
       at most prec bits); s > nb drops every bit below the round bit. *)
    let kept = if s <= 0 then m lsl -s else if s > nb then 0 else m lsr s in
    let rbit = s >= 1 && s <= nb && (m lsr (s - 1)) land 1 = 1 in
    let sticky = s > nb || (s >= 2 && m land ((1 lsl (s - 1)) - 1) <> 0) in
    let inexact = rbit || sticky in
    let incr =
      match mode with
      | RNE -> rbit && (sticky || kept land 1 = 1)
      | RNA -> rbit
      | RTZ -> false
      | RTU -> inexact && not neg
      | RTD -> inexact && neg
      | RTO -> inexact && kept land 1 = 0
    in
    let kept = if incr then kept + 1 else kept in
    if kept = 0 then (if neg then neg_zero_bits fmt else zero_bits fmt)
    else begin
      let nbk = B.int_numbits kept in
      let res_exp = nbk + quantum - 1 in
      if res_exp > emax fmt then overflow_bits fmt mode ~neg
      else begin
        let befrac =
          if res_exp < emin then kept
          else begin
            (* A carry out of the top bit leaves a trailing zero, so the
               right shift is exact. *)
            let shift = fmt.prec - nbk in
            let mant = if shift >= 0 then kept lsl shift else kept lsr -shift in
            ((res_exp - emin) lsl fwidth fmt) + mant
          end
        in
        Int64.of_int (((if neg then 1 else 0) lsl (width fmt - 1)) lor befrac)
      end
    end
  end

let round_float fmt mode x =
  if Float.is_nan x then nan_bits fmt
  else if x = Float.infinity then inf_bits fmt ~neg:false
  else if x = Float.neg_infinity then inf_bits fmt ~neg:true
  else begin
    (* IEEE binary64 fields: a subnormal (or zero) has no hidden bit and
       the fixed exponent -1074. *)
    let b = Int64.bits_of_float x in
    let neg = Int64.compare b 0L < 0 in
    let be = Int64.to_int (Int64.shift_right_logical b 52) land 0x7ff in
    let f = Int64.to_int b land 0xF_FFFF_FFFF_FFFF in
    if be = 0 then of_dyadic fmt mode ~neg f (-1074)
    else of_dyadic fmt mode ~neg (f lor 0x10_0000_0000_0000) (be - 1075)
  end

(* With prec <= 53 and ebits <= 11 the subnormal quantum is >= 2^-1074
   and the largest value < 2^1024, so every finite value is a double. *)
let fits_double fmt = fmt.ebits <= 11 && fmt.prec <= 53

(* Where every value is a double, the significand scaled by ldexp is the
   exact value, read in place from the fields.  Other formats round the
   magnitude through Rat. *)
let to_float fmt b =
  let n = Int64.to_int b in
  let f = n land fmask fmt and be = (n lsr fwidth fmt) land emask fmt in
  if be = emask fmt && f <> 0 then Float.nan
  else
    let v =
      if be = emask fmt then Float.infinity
      else if fits_double fmt then
        Float.ldexp (float_of_int (mant fmt be f)) (expo fmt be)
      else Rat.to_float (to_rat fmt (of_fields fmt 0 be f))
    in
    if (n lsr (width fmt - 1)) land 1 = 1 then -.v else v

(* ---------- ordering and navigation ---------- *)

let ordinal fmt b =
  let n = Int64.to_int b in
  let mag = n land ((1 lsl (width fmt - 1)) - 1) in
  if n lsr (width fmt - 1) land 1 = 1 then -mag - 1 else mag

let of_ordinal fmt o =
  if o >= 0 then Int64.of_int o
  else Int64.of_int ((1 lsl (width fmt - 1)) lor (-o - 1))

let succ fmt b =
  (match classify fmt b with
  | NaN -> invalid_arg "Softfp.succ: nan"
  | Inf when not (sign_bit fmt b) -> invalid_arg "Softfp.succ: +inf"
  | _ -> ());
  of_ordinal fmt (ordinal fmt b + 1)

let pred fmt b =
  (match classify fmt b with
  | NaN -> invalid_arg "Softfp.pred: nan"
  | Inf when sign_bit fmt b -> invalid_arg "Softfp.pred: -inf"
  | _ -> ());
  of_ordinal fmt (ordinal fmt b - 1)

let count_finite fmt = 2 * ((emask fmt) * (1 lsl fwidth fmt))

let iter_finite fmt f =
  let max_befrac = (emask fmt) lsl fwidth fmt in
  for s = 0 to 1 do
    let hi = s lsl (width fmt - 1) in
    for befrac = 0 to max_befrac - 1 do
      f (Int64.of_int (hi lor befrac))
    done
  done

(* ---------- double rounding ---------- *)

let narrow ~src ~dst mode b =
  match classify src b with
  | NaN -> nan_bits dst
  | Inf -> inf_bits dst ~neg:(sign_bit src b)
  | Zero | Subnormal | Normal ->
      let sg, be, f = to_fields src b in
      of_dyadic dst mode ~neg:(sg = 1) (mant src be f) (expo src be)

(* ---------- native bridges ---------- *)

let bits_of_float32 x =
  Int64.logand (Int64.of_int32 (Int32.bits_of_float x)) 0xFFFFFFFFL
