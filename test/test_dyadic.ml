(* Tests for dyadic multi-precision numbers and outward-rounded interval
   arithmetic. *)

module D = Dyadic

let dq = D.to_rat

let check_rat msg want got =
  Alcotest.(check string) msg (Rat.to_string want) (Rat.to_string got)

let test_normalization () =
  let d = D.make (Bigint.of_int 12) 0 in
  Alcotest.(check string) "mantissa odd" "3" (Bigint.to_string (D.mantissa d));
  Alcotest.(check int) "exponent" 2 (D.exponent d);
  Alcotest.(check bool) "zero" true (D.is_zero (D.make Bigint.zero 5));
  Alcotest.(check int) "zero exp" 0 (D.exponent (D.make Bigint.zero 5))

let test_exact_ops () =
  let a = D.of_rat D.Down ~prec:60 (Rat.of_ints 3 4) in
  let b = D.of_rat D.Down ~prec:60 (Rat.of_ints 5 8) in
  check_rat "add" (Rat.of_ints 11 8) (dq (D.add a b));
  check_rat "sub" (Rat.of_ints 1 8) (dq (D.sub a b));
  check_rat "mul" (Rat.of_ints 15 32) (dq (D.mul a b));
  check_rat "mul_2exp" (Rat.of_ints 3 1) (dq (D.mul_2exp a 2))

let test_round_directed () =
  (* 0b1.0110011 = 179/128; round to 4 bits *)
  let d = D.make (Bigint.of_int 179) (-7) in
  let down = D.round D.Down ~prec:4 d in
  let up = D.round D.Up ~prec:4 d in
  Alcotest.(check bool) "down <= x" true (D.compare down d <= 0);
  Alcotest.(check bool) "x <= up" true (D.compare d up <= 0);
  Alcotest.(check bool) "tight" true
    (Rat.compare
       (Rat.sub (dq up) (dq down))
       (Rat.mul_pow2 Rat.one (-7 + 4)) (* one ulp at 4 bits *)
    <= 0);
  (* negative value: Down increases magnitude *)
  let nd = D.neg d in
  Alcotest.(check bool) "neg down" true
    (D.compare (D.round D.Down ~prec:4 nd) nd <= 0);
  Alcotest.(check bool) "neg up" true
    (D.compare nd (D.round D.Up ~prec:4 nd) <= 0)

let test_div () =
  let one = D.one and three = D.of_int 3 in
  let lo = D.div D.Down ~prec:50 one three in
  let hi = D.div D.Up ~prec:50 one three in
  let third = Rat.of_ints 1 3 in
  Alcotest.(check bool) "lo < 1/3" true (Rat.compare (dq lo) third < 0);
  Alcotest.(check bool) "1/3 < hi" true (Rat.compare third (dq hi) < 0);
  Alcotest.(check bool) "tight" true
    (Rat.compare (Rat.sub (dq hi) (dq lo)) (Rat.mul_pow2 Rat.one (-48)) < 0);
  (* exact division *)
  let six = D.of_int 6 in
  check_rat "6/3 exact" Rat.two (dq (D.div D.Down ~prec:10 six three));
  Alcotest.check_raises "div zero" Division_by_zero (fun () ->
      ignore (D.div D.Down ~prec:10 one D.zero))

let test_log2_floor () =
  Alcotest.(check int) "8" 3 (D.log2_floor (D.of_int 8));
  Alcotest.(check int) "7" 2 (D.log2_floor (D.of_int 7));
  Alcotest.(check int) "1/4" (-2) (D.log2_floor (D.pow2 (-2)));
  Alcotest.(check int) "neg" 3 (D.log2_floor (D.of_int (-8)))

(* ---------- interval tests ---------- *)

let test_ival_basics () =
  let iv = Ival.of_rat ~prec:40 (Rat.of_ints 1 3) in
  let lo, hi = Ival.to_rats iv in
  Alcotest.(check bool) "contains" true
    (Rat.compare lo (Rat.of_ints 1 3) <= 0
    && Rat.compare (Rat.of_ints 1 3) hi <= 0);
  Alcotest.check_raises "bad make" (Invalid_argument "Ival.make: lo > hi")
    (fun () -> ignore (Ival.make D.one D.zero))

let test_ival_mul_signs () =
  (* Interval multiplication must be correct across sign combinations. *)
  let mk a b = Ival.make (D.of_int a) (D.of_int b) in
  let check name a b expect_lo expect_hi =
    let p = Ival.mul ~prec:60 a b in
    let lo, hi = Ival.to_rats p in
    Alcotest.(check string) (name ^ " lo") (string_of_int expect_lo)
      (Rat.to_string lo);
    Alcotest.(check string) (name ^ " hi") (string_of_int expect_hi)
      (Rat.to_string hi)
  in
  check "pos*pos" (mk 2 3) (mk 5 7) 10 21;
  check "mixed" (mk (-2) 3) (mk 5 7) (-14) 21;
  check "neg*neg" (mk (-3) (-2)) (mk (-7) (-5)) 10 21;
  check "spanning" (mk (-2) 3) (mk (-5) 7) (-15) 21

let test_ival_enclosure_property () =
  (* Random interval ops keep exact rational arithmetic enclosed. *)
  let gen =
    QCheck2.Gen.(
      let* n = int_range (-10000) 10000 in
      let* d = int_range 1 10000 in
      return (Rat.of_ints n d))
  in
  let test =
    QCheck2.Test.make ~count:300 ~name:"interval ops enclose exact values"
      QCheck2.Gen.(quad gen gen gen gen)
      (fun (a, b, c, d) ->
        let prec = 30 in
        let ia = Ival.of_rat ~prec a and ib = Ival.of_rat ~prec b in
        let ic = Ival.of_rat ~prec c and id_ = Ival.of_rat ~prec d in
        let sum = Ival.add ~prec (Ival.mul ~prec ia ib) (Ival.mul ~prec ic id_) in
        let exact = Rat.add (Rat.mul a b) (Rat.mul c d) in
        let lo, hi = Ival.to_rats sum in
        Rat.compare lo exact <= 0 && Rat.compare exact hi <= 0)
  in
  QCheck_alcotest.to_alcotest test

let test_ival_div_guard () =
  Alcotest.check_raises "spanning divisor" Division_by_zero (fun () ->
      ignore
        (Ival.div ~prec:20
           (Ival.of_int 1)
           (Ival.make (D.of_int (-1)) (D.of_int 1))))

let test_widen () =
  let iv = Ival.of_int 5 in
  let w = Ival.widen iv (D.pow2 (-10)) in
  let lo, hi = Ival.to_rats w in
  Alcotest.(check bool) "wider" true
    (Rat.compare lo (Rat.of_int 5) < 0 && Rat.compare (Rat.of_int 5) hi < 0);
  Alcotest.check_raises "negative widen"
    (Invalid_argument "Ival.widen: negative error") (fun () ->
      ignore (Ival.widen iv (D.of_int (-1))))

let prop_round_enclosure =
  let gen =
    QCheck2.Gen.(
      let* n = int_range (-1_000_000_000) 1_000_000_000 in
      let* d = int_range 1 1_000_000_000 in
      let* p = int_range 2 80 in
      return (Rat.of_ints n d, p))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:400 ~name:"of_rat directed brackets" gen
       (fun (q, prec) ->
         let lo = D.of_rat D.Down ~prec q and hi = D.of_rat D.Up ~prec q in
         Rat.compare (dq lo) q <= 0
         && Rat.compare q (dq hi) <= 0
         && D.numbits lo <= prec
         && D.numbits hi <= prec))

(* ---------- native fixed point (the oracle's first tier) ---------- *)

let fixed_rats iv = Fixed.to_rats iv ~scale:0
let one_ulp = Rat.mul_pow2 Rat.one (-Fixed.frac_bits)

(* [iv] contains the exact value [q] and is at most [ulps] wide. *)
let encloses ?(ulps = 1) iv q =
  let lo, hi = fixed_rats iv in
  Rat.compare lo q <= 0
  && Rat.compare q hi <= 0
  && Rat.compare (Rat.sub hi lo) (Rat.mul (Rat.of_int ulps) one_ulp) <= 0

(* A raw endpoint with [bits] random magnitude bits and a random sign. *)
let gen_raw bits =
  QCheck2.Gen.(
    let* v = int_bound ((1 lsl bits) - 1) in
    let* neg = bool in
    return (if neg then -v else v))

let prop_fixed_ops =
  let gen =
    QCheck2.Gen.(
      let* bx = int_range 0 60 in
      let* by = int_range 0 (min 60 (113 - bx)) in
      let* x = gen_raw bx and* y = gen_raw by in
      let* d = int_range 1 1_000_000 and* k = int_range (-200) 200 in
      let* sh = int_range (-70) 5 in
      return (x, y, d, k, sh))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"fixed-point ops enclose exact values"
       gen (fun (x, y, d, k, sh) ->
         let q v = Rat.mul_pow2 (Rat.of_int v) (-Fixed.frac_bits) in
         let px = Fixed.make x x and py = Fixed.make y y in
         let prod = Fixed.mul px py in
         let quot = Fixed.div_int px d in
         let scaled = Fixed.mul_int (Fixed.make (x asr 9) (x asr 9)) k in
         let ratio = Fixed.of_ratio (abs y mod d) d in
         encloses prod (Rat.mul (q x) (q y))
         && encloses quot (Rat.div (q x) (Rat.of_int d))
         && encloses ~ulps:0 scaled (Rat.mul (q (x asr 9)) (Rat.of_int k))
         && encloses ratio (Rat.of_ints (abs y mod d) d)
         && (match Fixed.of_dyadic x sh with
            | Some iv -> encloses iv (Rat.mul_pow2 (Rat.of_int x) sh)
            | None -> Rat.compare (Rat.abs (Rat.mul_pow2 (Rat.of_int x) sh))
                        (Rat.of_int 128) >= 0)))

let test_fixed_interval_mul () =
  (* Sign cases of the interval product, against the exact corner
     products. *)
  let u = 1 lsl Fixed.frac_bits in
  let mk a b = Fixed.make (a * u / 4) (b * u / 4) in
  let check name a b lo hi =
    let plo, phi = fixed_rats (Fixed.mul a b) in
    Alcotest.(check string) (name ^ " lo") (Rat.to_string (Rat.of_ints lo 16))
      (Rat.to_string plo);
    Alcotest.(check string) (name ^ " hi") (Rat.to_string (Rat.of_ints hi 16))
      (Rat.to_string phi)
  in
  check "pos*pos" (mk 2 3) (mk 5 7) 10 21;
  check "neg*pos" (mk (-3) (-2)) (mk 5 7) (-21) (-10);
  check "spanning" (mk (-2) 3) (mk (-5) 7) (-15) 21;
  Alcotest.check_raises "operand range" (Invalid_argument "Fixed.mul: operand range")
    (fun () -> ignore (Fixed.mul (Fixed.make 0 (1 lsl 61)) (mk 1 1)));
  Alcotest.check_raises "result range" (Invalid_argument "Fixed.mul: overflow")
    (fun () -> ignore (Fixed.mul (Fixed.of_int 100) (Fixed.of_int 100)))

let suite =
  [
    ("normalization", `Quick, test_normalization);
    ("exact operations", `Quick, test_exact_ops);
    ("directed rounding", `Quick, test_round_directed);
    ("division", `Quick, test_div);
    ("log2_floor", `Quick, test_log2_floor);
    ("interval basics", `Quick, test_ival_basics);
    ("interval mul signs", `Quick, test_ival_mul_signs);
    ("interval div guard", `Quick, test_ival_div_guard);
    ("interval widen", `Quick, test_widen);
    prop_round_enclosure;
    test_ival_enclosure_property ();
    ("fixed-point interval mul", `Quick, test_fixed_interval_mul);
    prop_fixed_ops;
  ]
