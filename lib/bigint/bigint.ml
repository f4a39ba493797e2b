(* Arbitrary-precision signed integers: sign-magnitude over 30-bit limbs.

   Magnitudes are little-endian [int array]s with no trailing zero limb.
   The empty magnitude represents zero and always carries sign 0.  The base
   2^30 leaves enough headroom in a 63-bit native int for a full limb
   product plus carries, so schoolbook multiplication needs no splitting. *)

let limb_bits = 30
let base = 1 lsl limb_bits
let limb_mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

(* ---------- magnitude helpers ---------- *)

(* Strip trailing zero limbs; returns a fresh array only when needed. *)
let trim mag =
  let n = Array.length mag in
  let rec top i = if i >= 0 && mag.(i) = 0 then top (i - 1) else i in
  let t = top (n - 1) in
  if t = n - 1 then mag else Array.sub mag 0 (t + 1)

let make sign mag =
  let mag = trim mag in
  if Array.length mag = 0 then zero else { sign; mag }

let mag_compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let mag_add a b =
  let la = Array.length a and lb = Array.length b in
  let lmax = if la > lb then la else lb in
  let r = Array.make (lmax + 1) 0 in
  let carry = ref 0 in
  for i = 0 to lmax - 1 do
    let ai = if i < la then a.(i) else 0 in
    let bi = if i < lb then b.(i) else 0 in
    let s = ai + bi + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  r.(lmax) <- !carry;
  r

(* Requires |a| >= |b|. *)
let mag_sub a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let bi = if i < lb then b.(i) else 0 in
    let d = a.(i) - bi - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  r

(* Schoolbook multiplication, the only product.  Generation's operands
   stay small (counted on both benchmark workloads: none above 10 limbs)
   and mini's oracle never leaves its native tier, so no workload
   reaches the sizes where splitting would pay. *)
let mag_mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let t = (ai * b.(j)) + r.(i + j) + !carry in
          r.(i + j) <- t land limb_mask;
          carry := t lsr limb_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let t = r.(!k) + !carry in
          r.(!k) <- t land limb_mask;
          carry := t lsr limb_bits;
          incr k
        done
      end
    done;
    r
  end

(* Multiply magnitude by a small non-negative int (< base). *)
let mag_mul_small a m =
  if m = 0 then [||]
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let t = (a.(i) * m) + !carry in
      r.(i) <- t land limb_mask;
      carry := t lsr limb_bits
    done;
    r.(la) <- !carry;
    r
  end

(* Multiply magnitude by an arbitrary positive native int: decompose the
   scalar into base-2^30 limbs (at most three on 64-bit) and run one
   multiply-accumulate pass per scalar limb.  Accumulator bound:
   r_slot + a_i*m + carry < 2^30 + 2^60 + 2^31 fits a native int. *)
let mag_mul_int a n =
  if n < base then mag_mul_small a n
  else begin
    let la = Array.length a in
    let n0 = n land limb_mask in
    let n1 = (n lsr limb_bits) land limb_mask in
    let n2 = n lsr (2 * limb_bits) in
    let ln = if n2 <> 0 then 3 else 2 in
    let r = Array.make (la + ln) 0 in
    let pass k m =
      if m <> 0 then begin
        let carry = ref 0 in
        for i = 0 to la - 1 do
          let t = r.(i + k) + (a.(i) * m) + !carry in
          r.(i + k) <- t land limb_mask;
          carry := t lsr limb_bits
        done;
        (* Top slot of this pass is still untouched by later passes. *)
        r.(la + k) <- !carry
      end
    in
    pass 0 n0;
    pass 1 n1;
    if ln = 3 then pass 2 n2;
    r
  end

(* Divide magnitude by a small positive int (< base); returns quotient
   magnitude and the integer remainder. *)
let mag_divmod_small a m =
  let la = Array.length a in
  let q = Array.make la 0 in
  let rem = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!rem lsl limb_bits) lor a.(i) in
    q.(i) <- cur / m;
    rem := cur mod m
  done;
  (q, !rem)

let mag_shift_left a k =
  if Array.length a = 0 then [||]
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    if bits = 0 then Array.blit a 0 r limbs la
    else begin
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let t = (a.(i) lsl bits) lor !carry in
        r.(i + limbs) <- t land limb_mask;
        carry := t lsr limb_bits
      done;
      r.(la + limbs) <- !carry
    end;
    r
  end

(* Logical right shift of the magnitude (truncates low bits). *)
let mag_shift_right a k =
  let limbs = k / limb_bits and bits = k mod limb_bits in
  let la = Array.length a in
  if limbs >= la then [||]
  else begin
    let lr = la - limbs in
    let r = Array.make lr 0 in
    if bits = 0 then Array.blit a limbs r 0 lr
    else
      for i = 0 to lr - 1 do
        let lo = a.(i + limbs) lsr bits in
        let hi =
          if i + limbs + 1 < la then
            (a.(i + limbs + 1) lsl (limb_bits - bits)) land limb_mask
          else 0
        in
        r.(i) <- lo lor hi
      done;
    r
  end

let int_numbits n =
  let n = ref n and k = ref 0 in
  if !n lsr 32 <> 0 then (n := !n lsr 32; k := 32);
  if !n lsr 16 <> 0 then (n := !n lsr 16; k := !k + 16);
  if !n lsr 8 <> 0 then (n := !n lsr 8; k := !k + 8);
  if !n lsr 4 <> 0 then (n := !n lsr 4; k := !k + 4);
  if !n lsr 2 <> 0 then (n := !n lsr 2; k := !k + 2);
  if !n lsr 1 <> 0 then (n := !n lsr 1; k := !k + 1);
  !k + !n

let mag_numbits a =
  let la = Array.length a in
  if la = 0 then 0 else ((la - 1) * limb_bits) + int_numbits a.(la - 1)

(* Knuth Algorithm D.  Requires |u| >= |v| and Array.length v >= 2. *)
let mag_divmod_knuth u v =
  let n = Array.length v in
  (* Normalize so the top limb of v is >= base/2. *)
  let shift = limb_bits - int_numbits v.(n - 1) in
  let vn = trim (mag_shift_left v shift) in
  let un_raw = mag_shift_left u shift in
  (* Ensure un has exactly (m + n + 1) limbs. *)
  let m = Array.length (trim un_raw) - n in
  let m = if m < 0 then 0 else m in
  let un = Array.make (m + n + 1) 0 in
  let raw = trim un_raw in
  Array.blit raw 0 un 0 (Array.length raw);
  let q = Array.make (m + 1) 0 in
  let vtop = vn.(n - 1) in
  let vsecond = if n >= 2 then vn.(n - 2) else 0 in
  for j = m downto 0 do
    (* Estimate the quotient limb. *)
    let numerator = (un.(j + n) lsl limb_bits) lor un.(j + n - 1) in
    let qhat = ref (numerator / vtop) in
    let rhat = ref (numerator mod vtop) in
    let adjust () =
      !qhat >= base
      || !qhat * vsecond > (!rhat lsl limb_bits) lor un.(j + n - 2)
    in
    while n >= 2 && !rhat < base && adjust () do
      decr qhat;
      rhat := !rhat + vtop
    done;
    (* Multiply and subtract: un[j .. j+n] -= qhat * vn. *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * vn.(i)) + !carry in
      carry := p lsr limb_bits;
      let d = un.(i + j) - (p land limb_mask) - !borrow in
      if d < 0 then begin
        un.(i + j) <- d + base;
        borrow := 1
      end else begin
        un.(i + j) <- d;
        borrow := 0
      end
    done;
    let d = un.(j + n) - !carry - !borrow in
    if d < 0 then begin
      (* qhat was one too large: add back. *)
      un.(j + n) <- d + base;
      decr qhat;
      let carry2 = ref 0 in
      for i = 0 to n - 1 do
        let s = un.(i + j) + vn.(i) + !carry2 in
        un.(i + j) <- s land limb_mask;
        carry2 := s lsr limb_bits
      done;
      un.(j + n) <- (un.(j + n) + !carry2) land limb_mask
    end else un.(j + n) <- d;
    q.(j) <- !qhat
  done;
  let r = mag_shift_right (trim un) shift in
  (trim q, trim r)

let mag_divmod u v =
  match Array.length v with
  | 0 -> raise Division_by_zero
  | _ when mag_compare u v < 0 -> ([||], Array.copy u)
  | 1 ->
      let q, r = mag_divmod_small u v.(0) in
      (trim q, if r = 0 then [||] else [| r |])
  | _ -> mag_divmod_knuth u v

(* ---------- construction and conversion ---------- *)

let of_int n =
  if n = 0 then zero
  else begin
    (* Work on the negative side so [abs min_int] cannot overflow; OCaml's
       [mod] keeps the dividend's sign, so [neg mod base] is in (-base, 0]. *)
    let sign = if n < 0 then -1 else 1 in
    let rec go neg acc =
      if neg = 0 then List.rev acc
      else go (neg / base) (-(neg mod base) :: acc)
    in
    make sign (Array.of_list (go (if n < 0 then n else -n) []))
  end

let one = of_int 1
let two = of_int 2
let minus_one = of_int (-1)
let ten = of_int 10

let sign x = x.sign
let is_zero x = x.sign = 0

let numbits x = mag_numbits x.mag

let to_int x =
  if x.sign = 0 then Some 0
  else begin
    let nb = numbits x in
    if nb <= 62 then begin
      let v = ref 0 in
      for i = Array.length x.mag - 1 downto 0 do
        v := (!v lsl limb_bits) lor x.mag.(i)
      done;
      Some (if x.sign < 0 then - !v else !v)
    end
    else if
      (* min_int = -2^62 has a 63-bit magnitude but still fits. *)
      nb = 63 && x.sign < 0
      && Array.for_all (fun l -> l = 0) (Array.sub x.mag 0 2)
      && x.mag.(2) = 1 lsl 2
    then Some min_int
    else None
  end

let to_int_exn x =
  match to_int x with
  | Some n -> n
  | None -> failwith "Bigint.to_int_exn: value does not fit in an int"

let compare a b =
  if a.sign <> b.sign then compare a.sign b.sign
  else if a.sign >= 0 then mag_compare a.mag b.mag
  else mag_compare b.mag a.mag

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let is_one x = x.sign = 1 && Array.length x.mag = 1 && x.mag.(0) = 1
let is_even x = x.sign = 0 || x.mag.(0) land 1 = 0
let is_odd x = not (is_even x)

let neg x = if x.sign = 0 then x else { x with sign = -x.sign }
let abs x = if x.sign < 0 then neg x else x

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then make a.sign (mag_add a.mag b.mag)
  else begin
    let c = mag_compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make a.sign (mag_sub a.mag b.mag)
    else make b.sign (mag_sub b.mag a.mag)
  end

let sub a b = add a (neg b)
let succ x = add x one
let pred x = sub x one
let add_int x n = add x (of_int n)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else make (a.sign * b.sign) (mag_mul a.mag b.mag)

let mul_int a n =
  if n = 0 || a.sign = 0 then zero
  else if n = Stdlib.min_int then
    (* The one value whose magnitude [abs] cannot represent. *)
    mul a (of_int n)
  else
    let s = if n < 0 then -a.sign else a.sign in
    make s (mag_mul_int a.mag (Stdlib.abs n))

let divmod a b =
  if b.sign = 0 then raise Division_by_zero
  else if a.sign = 0 then (zero, zero)
  else begin
    let qm, rm = mag_divmod a.mag b.mag in
    let q = make (a.sign * b.sign) qm in
    let r = make a.sign rm in
    (q, r)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let fdivmod a b =
  let q, r = divmod a b in
  if r.sign <> 0 && r.sign <> b.sign then (pred q, add r b) else (q, r)

let fdiv a b = fst (fdivmod a b)

let cdiv a b =
  let q, r = divmod a b in
  if r.sign <> 0 && r.sign = b.sign then succ q else q

let pow x n =
  if n < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc base n =
    if n = 0 then acc
    else
      let acc = if n land 1 = 1 then mul acc base else acc in
      if n = 1 then acc else go acc (mul base base) (n lsr 1)
  in
  go one x n

let shift_left x k =
  if k < 0 then invalid_arg "Bigint.shift_left: negative shift";
  if x.sign = 0 || k = 0 then x else make x.sign (mag_shift_left x.mag k)

let pow2 n = shift_left one n

let testbit x k =
  let limb = k / limb_bits and bit = k mod limb_bits in
  limb < Array.length x.mag && (x.mag.(limb) lsr bit) land 1 = 1

let shift_right x k =
  if k < 0 then invalid_arg "Bigint.shift_right: negative shift";
  if x.sign = 0 || k = 0 then x
  else begin
    let m = mag_shift_right x.mag k in
    let q = make x.sign m in
    if x.sign < 0 then begin
      (* Floor semantics: if any truncated bit was set, subtract one. *)
      let dropped =
        let rec any i = i < k && (testbit x i || any (i + 1)) in
        any 0
      in
      if dropped then pred q else q
    end
    else q
  end

let trailing_zeros x =
  if x.sign = 0 then invalid_arg "Bigint.trailing_zeros: zero";
  let rec limb i = if x.mag.(i) = 0 then limb (i + 1) else i in
  let i = limb 0 in
  let v = x.mag.(i) in
  let rec bit v acc = if v land 1 = 1 then acc else bit (v lsr 1) (acc + 1) in
  (i * limb_bits) + bit v 0

(* ---------- Lehmer's gcd ----------

   Euclid's quotients are computed on the leading [lehmer_bits] bits of
   the two operands (Knuth, TAOCP vol. 2, 4.5.2, Algorithm L), and the
   resulting 2x2 cofactor matrix is applied to the full operands in one
   linear-combination pass.  Each pass removes about 30 bits and updates
   two buffers in place, so the loop allocates only on a full division
   step. *)

let lehmer_bits = 2 * limb_bits

(* Cofactor bound: with |A|, |B| <= 2^31 and A, B of opposite signs,
   |A*u_i + B*v_i| < 2^61 on 30-bit limbs, so a pass plus its signed
   carry stays inside a native int. *)
let cofactor_max = 1 lsl 31

let rec int_gcd a b = if b = 0 then a else int_gcd b (a mod b)

(* Bits [s, s + lehmer_bits) of the magnitude [u.(0 .. len-1)] as a
   native int; the caller picks [s] so that every higher bit is zero. *)
let window u len s =
  let i = s / limb_bits and off = s mod limb_bits in
  let get k = if k < len then u.(k) else 0 in
  (get i lsr off)
  lor (get (i + 1) lsl (limb_bits - off))
  lor (get (i + 2) lsl ((2 * limb_bits) - off))

(* Knuth's Algorithm L on the leading words [x >= y]: the longest run of
   quotients that every completion of the truncated operands agrees on,
   cut short before a cofactor exceeds [cofactor_max].  Returns the
   cofactors (A, B, C, D) with u' = A*u + B*v and v' = C*u + D*v;
   B = 0 means not even the first quotient was certain. *)
let lehmer_cofactors x y =
  let rec go x y a b c d =
    if y + c = 0 || y + d = 0 then (a, b, c, d)
    else begin
      let q = (x + a) / (y + c) in
      if q <> (x + b) / (y + d) then (a, b, c, d)
      else begin
        let c' = a - (q * c) and d' = b - (q * d) in
        if Stdlib.abs c' > cofactor_max || Stdlib.abs d' > cofactor_max then
          (a, b, c, d)
        else go y (x - (q * y)) c d c' d'
      end
    end
  in
  go x y 1 0 0 1

(* u, v <- A*u + B*v, C*u + D*v over limbs [0, n).  Both results are
   consecutive Euclidean remainders, hence non-negative and below u, so
   the final signed carries are zero. *)
let lincomb u v n a b c d =
  let cu = ref 0 and cv = ref 0 in
  for i = 0 to n - 1 do
    let ui = u.(i) and vi = v.(i) in
    let s = (a * ui) + (b * vi) + !cu in
    let t = (c * ui) + (d * vi) + !cv in
    u.(i) <- s land limb_mask;
    cu := s asr limb_bits;
    v.(i) <- t land limb_mask;
    cv := t asr limb_bits
  done

let rec top_len u n = if n > 0 && u.(n - 1) = 0 then top_len u (n - 1) else n

(* gcd of two non-zero magnitudes.  [u] and [v] are owned buffers of the
   same capacity holding magnitudes of [lu >= lv] limbs (u >= v), zero
   above their lengths. *)
let rec mag_gcd_loop u lu v lv =
  if lv = 0 then Array.sub u 0 lu
  else if lu <= 2 then begin
    (* Both fit in lehmer_bits: finish with native Euclid. *)
    let native w l = if l = 2 then w.(0) lor (w.(1) lsl limb_bits) else w.(0) in
    let g = int_gcd (native u lu) (native v lv) in
    [| g land limb_mask; g lsr limb_bits |]
  end
  else begin
    let s = ((lu - 1) * limb_bits) + int_numbits u.(lu - 1) - lehmer_bits in
    let a, b, c, d =
      if lu - lv > 1 then (1, 0, 0, 1)
      else lehmer_cofactors (window u lu s) (window v lv s)
    in
    if b = 0 then begin
      (* Sizes too far apart, or no certain quotient: one full division
         step (u, v) <- (v, u mod v). *)
      let _, r = mag_divmod (Array.sub u 0 lu) (Array.sub v 0 lv) in
      let u' = Array.sub v 0 lv and v' = Array.make lv 0 in
      Array.blit r 0 v' 0 (Array.length r);
      mag_gcd_loop u' lv v' (Array.length r)
    end
    else begin
      lincomb u v lu a b c d;
      mag_gcd_loop u (top_len u lu) v (top_len v lu)
    end
  end

let mag_gcd a b =
  let a, b = if mag_compare a b >= 0 then (a, b) else (b, a) in
  let la = Array.length a in
  let v = Array.make la 0 in
  Array.blit b 0 v 0 (Array.length b);
  mag_gcd_loop (Array.copy a) la v (Array.length b)

let gcd a b =
  if a.sign = 0 then abs b
  else if b.sign = 0 then abs a
  else make 1 (mag_gcd a.mag b.mag)

(* ---------- string conversion ---------- *)

let dec_chunk = 1_000_000_000 (* 10^9 < base^2; fits small-div routines *)

let to_string x =
  if x.sign = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec chunks mag acc =
      if Array.length mag = 0 then acc
      else
        let q, r = mag_divmod_small mag dec_chunk in
        chunks (trim q) (r :: acc)
    in
    (match chunks x.mag [] with
    | [] -> assert false
    | first :: rest ->
        if x.sign < 0 then Buffer.add_char buf '-';
        Buffer.add_string buf (string_of_int first);
        List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    Buffer.contents buf
  end

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  let sign, start =
    match s.[0] with
    | '-' -> (-1, 1)
    | '+' -> (1, 1)
    | _ -> (1, 0)
  in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  let hex = len - start > 2 && s.[start] = '0' && (s.[start + 1] = 'x' || s.[start + 1] = 'X') in
  let start = if hex then start + 2 else start in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' when hex -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' when hex -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg (Printf.sprintf "Bigint.of_string: bad character %C" c)
  in
  let radix = if hex then 16 else 10 in
  let acc = ref zero in
  let seen = ref false in
  for i = start to len - 1 do
    if s.[i] <> '_' then begin
      seen := true;
      acc := add_int (mul_int !acc radix) (digit s.[i])
    end
  done;
  if not !seen then invalid_arg "Bigint.of_string: no digits";
  if sign < 0 then neg !acc else !acc

(* Correctly rounded conversion to double (round-to-nearest, ties to even). *)
let to_float x =
  if x.sign = 0 then 0.0
  else begin
    let n = numbits x in
    let m = abs x in
    let value =
      if n <= 53 then begin
        (* Exact: accumulate limbs; every step stays within 53 bits. *)
        let acc = ref 0.0 in
        for i = Array.length m.mag - 1 downto 0 do
          acc := (!acc *. float_of_int base) +. float_of_int m.mag.(i)
        done;
        !acc
      end
      else begin
        let top = to_int_exn (shift_right m (n - 53)) in
        let rbit = testbit m (n - 54) in
        let sticky =
          let rec any i = i >= 0 && (testbit m i || any (i - 1)) in
          n - 55 >= 0 && any (n - 55)
        in
        let top = if rbit && (sticky || top land 1 = 1) then top + 1 else top in
        ldexp (float_of_int top) (n - 53)
      end
    in
    if x.sign < 0 then -.value else value
  end

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( mod ) = rem
  let ( ~- ) = neg
  let ( = ) = equal
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
  let ( <> ) a b = not (equal a b)
end
