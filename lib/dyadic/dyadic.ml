(* Dyadic numbers m * 2^e, normalized so that m is odd (or zero). *)

module B = Bigint

type t = { m : B.t; e : int }

type dir = Down | Up

let normalize m e =
  if B.is_zero m then { m = B.zero; e = 0 }
  else begin
    let tz = B.trailing_zeros m in
    if tz = 0 then { m; e } else { m = B.shift_right m tz; e = e + tz }
  end

let zero = { m = B.zero; e = 0 }
let one = { m = B.one; e = 0 }

let make m e = normalize m e
let of_bigint m = normalize m 0
let of_int n = of_bigint (B.of_int n)
let pow2 k = { m = B.one; e = k }

let mantissa d = d.m
let exponent d = d.e

let is_zero d = B.is_zero d.m
let sign d = B.sign d.m
let neg d = { d with m = B.neg d.m }
let abs d = { d with m = B.abs d.m }

let to_rat d = Rat.mul_pow2 (Rat.of_bigint d.m) d.e

let numbits d = B.numbits d.m
let log2_floor d =
  if is_zero d then invalid_arg "Dyadic.log2_floor: zero";
  numbits d - 1 + d.e

let compare a b =
  let sa = sign a and sb = sign b in
  if sa <> sb then Stdlib.compare sa sb
  else if sa = 0 then 0
  else begin
    (* Same nonzero sign: compare magnitudes via exponents first. *)
    let la = log2_floor a and lb = log2_floor b in
    if la <> lb then if Stdlib.compare la lb > 0 = (sa > 0) then 1 else -1
    else begin
      (* Align and compare exactly. *)
      let shift = a.e - b.e in
      if shift >= 0 then B.compare (B.shift_left a.m shift) b.m
      else B.compare a.m (B.shift_left b.m (-shift))
    end
  end

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let add a b =
  if is_zero a then b
  else if is_zero b then a
  else begin
    let e = Stdlib.min a.e b.e in
    let ma = B.shift_left a.m (a.e - e) in
    let mb = B.shift_left b.m (b.e - e) in
    normalize (B.add ma mb) e
  end

let sub a b = add a (neg b)

let mul a b = normalize (B.mul a.m b.m) (a.e + b.e)
let mul_2exp d k = if is_zero d then d else { d with e = d.e + k }

(* Directed rounding to [prec] significant bits.  Down is toward -infinity,
   Up toward +infinity, on the signed value. *)
let round dir ~prec d =
  if prec <= 0 then invalid_arg "Dyadic.round: prec <= 0";
  let nb = numbits d in
  if nb <= prec then d
  else begin
    let dropbits = nb - prec in
    let mag = B.abs d.m in
    let kept = B.shift_right mag dropbits in
    let exact = B.equal (B.shift_left kept dropbits) mag in
    let bump =
      (* Increase magnitude when rounding away from zero is requested. *)
      match (dir, B.sign d.m > 0) with
      | Down, true -> false
      | Down, false -> not exact
      | Up, true -> not exact
      | Up, false -> false
    in
    let kept = if bump then B.succ kept else kept in
    let m = if B.sign d.m > 0 then kept else B.neg kept in
    normalize m (d.e + dropbits)
  end

let of_rat dir ~prec q =
  if Rat.is_zero q then zero
  else if Bigint.is_one (Rat.den q) then round dir ~prec (of_bigint (Rat.num q))
  else begin
    let m, e, exact = Rat.approx q ~bits:prec in
    (* m * 2^e <= |q| < (m+1) * 2^e *)
    let neg = Rat.sign q < 0 in
    let bump =
      (not exact)
      && (match (dir, neg) with
         | Down, true -> true
         | Down, false -> false
         | Up, true -> false
         | Up, false -> true)
    in
    let m = if bump then B.succ m else m in
    normalize (if neg then B.neg m else m) e
  end

let div dir ~prec a b =
  if is_zero b then raise Division_by_zero;
  if is_zero a then zero
  else begin
    let neg = sign a * sign b < 0 in
    let ma = B.abs a.m and mb = B.abs b.m in
    (* Scale the dividend so the magnitude quotient has > prec bits. *)
    let k = prec + B.numbits mb - B.numbits ma + 2 in
    let k = Stdlib.max k 0 in
    let q, r = B.divmod (B.shift_left ma k) mb in
    let exact = B.is_zero r in
    let bump =
      (not exact)
      && (match (dir, neg) with
         | Down, true -> true
         | Down, false -> false
         | Up, true -> false
         | Up, false -> true)
    in
    let q = if bump then B.succ q else q in
    let d = normalize (if neg then B.neg q else q) (a.e - b.e - k) in
    (* The quotient may carry one bit beyond prec; trim with the same
       direction (safe: rounding twice in one direction is monotone). *)
    round dir ~prec d
  end
