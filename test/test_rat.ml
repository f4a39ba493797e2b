(* Unit and property tests for exact rationals, with emphasis on the
   correctly rounded conversions to binary64 that the pipeline depends
   on. *)

let q = Rat.of_string
let qi = Rat.of_int

let check_q msg want got = Alcotest.(check string) msg want (Rat.to_string got)

(* ---------- unit tests ---------- *)

let test_canonical_form () =
  check_q "reduce" "1/2" (Rat.of_ints 2 4);
  check_q "sign in num" "-1/2" (Rat.of_ints 1 (-2));
  check_q "double neg" "1/2" (Rat.of_ints (-1) (-2));
  check_q "zero" "0" (Rat.of_ints 0 17);
  Alcotest.check_raises "zero den" Division_by_zero (fun () ->
      ignore (Rat.of_ints 1 0))

let test_parsing () =
  check_q "fraction" "22/7" (q "22/7");
  check_q "decimal" "-1/800" (q "-1.25e-3");
  check_q "sci" "1500" (q "1.5e3");
  check_q "plain" "42" (q "42");
  check_q "cap E" "250" (q "2.5E2")

let test_arith () =
  check_q "thirds" "1/2" (Rat.add (Rat.of_ints 1 3) (Rat.of_ints 1 6));
  check_q "mul cancel" "1" (Rat.mul (Rat.of_ints 3 7) (Rat.of_ints 7 3));
  check_q "div" "9/4" (Rat.div (Rat.of_ints 3 2) (Rat.of_ints 2 3));
  check_q "pow neg" "9/4" (Rat.pow (Rat.of_ints 2 3) (-2));
  check_q "mul_pow2 up" "12" (Rat.mul_pow2 (qi 3) 2);
  check_q "mul_pow2 down" "3/4" (Rat.mul_pow2 (qi 3) (-2));
  check_q "mul_pow2 cancel" "3" (Rat.mul_pow2 (Rat.of_ints 3 4) 2)

(* The gcd-free paths (a zero operand, two integers) must return the same
   canonical values as the general ones. *)
let test_fast_paths () =
  let x = Rat.of_ints (-22) 7 in
  check_q "0 + x" "-22/7" (Rat.add Rat.zero x);
  check_q "x + 0" "-22/7" (Rat.add x Rat.zero);
  check_q "0 - x" "22/7" (Rat.sub Rat.zero x);
  check_q "x - 0" "-22/7" (Rat.sub x Rat.zero);
  check_q "0 * x" "0" (Rat.mul Rat.zero x);
  check_q "x * 0" "0" (Rat.mul x Rat.zero);
  Alcotest.(check bool) "0 * x is canonical zero" true
    (Rat.equal (Rat.mul x Rat.zero) Rat.zero);
  check_q "int * int" "-42" (Rat.mul (qi 6) (qi (-7)));
  Alcotest.(check bool) "int * int stays integer" true
    (Rat.is_integer (Rat.mul (qi 6) (qi (-7))));
  check_q "int * frac" "-3" (Rat.mul (qi 21) (Rat.of_ints 1 (-7)))

let test_floor_ceil () =
  let f x = Bigint.to_string (Rat.floor (q x)) in
  let c x = Bigint.to_string (Rat.ceil (q x)) in
  let t x = Bigint.to_string (Rat.trunc (q x)) in
  Alcotest.(check string) "floor 7/2" "3" (f "7/2");
  Alcotest.(check string) "floor -7/2" "-4" (f "-7/2");
  Alcotest.(check string) "ceil 7/2" "4" (c "7/2");
  Alcotest.(check string) "ceil -7/2" "-3" (c "-7/2");
  Alcotest.(check string) "trunc -7/2" "-3" (t "-7/2")

let test_decimal_string () =
  Alcotest.(check string) "third" "0.3333333333"
    (Rat.to_decimal_string ~digits:10 (Rat.of_ints 1 3));
  Alcotest.(check string) "neg" "-0.50"
    (Rat.to_decimal_string ~digits:2 (Rat.of_ints (-1) 2));
  Alcotest.(check string) "int" "7" (Rat.to_decimal_string ~digits:0 (qi 7))

let test_of_float_exact () =
  List.iter
    (fun (x, expect) -> check_q (string_of_float x) expect (Rat.of_float x))
    [
      (0.5, "1/2");
      (-0.75, "-3/4");
      (3.0, "3");
      (0.1, "3602879701896397/36028797018963968");
      (Float.min_float, "1/44942328371557897693232629769725618340449424473557664318357520289433168951375240783177119330601884005280028469967848339414697442203604155623211857659868531094441973356216371319075554900311523529863270738021251442209537670585615720368478277635206809290837627671146574559986811484619929076208839082406056034304");
    ];
  (* Subnormals and the finite extremes: the mantissa path must stay
     exact for 1-bit and full 53-bit significands at both ends of the
     exponent range. *)
  let pow2 = Bigint.pow2 in
  let frac n d = Bigint.to_string n ^ "/" ^ Bigint.to_string d in
  List.iter
    (fun (msg, x, expect) -> check_q msg expect (Rat.of_float x))
    [
      ("min subnormal", Int64.float_of_bits 1L, frac Bigint.one (pow2 1074));
      ("-min subnormal", -.Int64.float_of_bits 1L, "-" ^ frac Bigint.one (pow2 1074));
      ( "max subnormal",
        Int64.float_of_bits 0x000f_ffff_ffff_ffffL,
        frac (Bigint.pred (pow2 52)) (pow2 1074) );
      ( "max_float",
        Float.max_float,
        Bigint.to_string (Bigint.shift_left (Bigint.pred (pow2 53)) 971) );
      ( "-max_float",
        -.Float.max_float,
        Bigint.to_string (Bigint.neg (Bigint.shift_left (Bigint.pred (pow2 53)) 971)) );
    ];
  Alcotest.check_raises "nan" (Invalid_argument "Rat.of_float: not finite")
    (fun () -> ignore (Rat.of_float Float.nan));
  Alcotest.check_raises "inf" (Invalid_argument "Rat.of_float: not finite")
    (fun () -> ignore (Rat.of_float Float.infinity))

let test_to_float_directed () =
  let third = Rat.of_ints 1 3 in
  let lo = Rat.to_float_dir Rat.Down third in
  let hi = Rat.to_float_dir Rat.Up third in
  Alcotest.(check bool) "adjacent" true (Float.succ lo = hi);
  Alcotest.(check bool) "brackets" true
    (Rat.compare (Rat.of_float lo) third < 0
    && Rat.compare third (Rat.of_float hi) < 0);
  Alcotest.(check (float 0.0)) "nearest is one of them" (1.0 /. 3.0)
    (Rat.to_float third);
  (* negative: Down goes more negative *)
  let nthird = Rat.neg third in
  Alcotest.(check bool) "neg ordering" true
    (Rat.to_float_dir Rat.Down nthird < Rat.to_float_dir Rat.Up nthird);
  Alcotest.(check (float 0.0)) "zero toward zero" (-0.3333333333333333)
    (Rat.to_float_dir Rat.Zero nthird)

let test_to_float_subnormal_overflow () =
  let open Rat.Infix in
  let min_sub = Int64.float_of_bits 1L in
  (* below half the smallest subnormal: RNE to 0, Up to min subnormal *)
  let tiny = Rat.mul_pow2 (Rat.of_ints 1 3) (-1080) in
  Alcotest.(check (float 0.0)) "tiny nearest" 0.0 (Rat.to_float tiny);
  Alcotest.(check (float 0.0)) "tiny up" min_sub (Rat.to_float_dir Rat.Up tiny);
  Alcotest.(check (float 0.0)) "tiny down" 0.0 (Rat.to_float_dir Rat.Down tiny);
  (* exactly half the smallest subnormal: tie to even = 0 *)
  let half_min = Rat.mul_pow2 Rat.one (-1075) in
  Alcotest.(check (float 0.0)) "half-min tie" 0.0 (Rat.to_float half_min);
  (* just above the tie rounds up *)
  let above = half_min + Rat.mul_pow2 Rat.one (-1200) in
  Alcotest.(check (float 0.0)) "above tie" min_sub (Rat.to_float above);
  (* overflow behaviour *)
  let huge = Rat.mul_pow2 Rat.one 1025 in
  Alcotest.(check (float 0.0)) "overflow nearest" Float.infinity
    (Rat.to_float huge);
  Alcotest.(check (float 0.0)) "overflow down" Float.max_float
    (Rat.to_float_dir Rat.Down huge);
  Alcotest.(check (float 0.0)) "neg overflow up" (-.Float.max_float)
    (Rat.to_float_dir Rat.Up (Rat.neg huge));
  (* the RNE overflow threshold is 2^1024 - 2^970 *)
  let threshold = Rat.mul_pow2 Rat.one 1024 - Rat.mul_pow2 Rat.one 970 in
  Alcotest.(check (float 0.0)) "at threshold" Float.infinity
    (Rat.to_float threshold);
  let below = threshold - Rat.mul_pow2 Rat.one 900 in
  Alcotest.(check (float 0.0)) "below threshold" Float.max_float
    (Rat.to_float below)

let test_approx () =
  let m, e, exact = Rat.approx (qi 12) ~bits:3 in
  Alcotest.(check string) "approx m" "6" (Bigint.to_string m);
  Alcotest.(check int) "approx e" 1 e;
  Alcotest.(check bool) "approx exact" true exact;
  let m, e, exact = Rat.approx (Rat.of_ints 1 3) ~bits:4 in
  (* 1/3 = 0.0101010101...b: 4 significant bits floor = 1010b = 10, e = -5 *)
  Alcotest.(check string) "third m" "10" (Bigint.to_string m);
  Alcotest.(check int) "third e" (-5) e;
  Alcotest.(check bool) "third inexact" false exact

(* ---------- property tests ---------- *)

let arb_rat =
  QCheck2.Gen.(
    let* n = int_range (-1_000_000_000) 1_000_000_000 in
    let* d = int_range 1 1_000_000_000 in
    let* scale = int_range (-60) 60 in
    return (Rat.mul_pow2 (Rat.of_ints n d) scale))

let arb_finite_float =
  QCheck2.Gen.(
    let* bits = int64 in
    let x = Int64.float_of_bits bits in
    if Float.is_finite x then return x else return 1.5)

(* Counterexample printers: rationals in decimal, floats in hex. *)
let rat = Rat.to_string
let hexf = Printf.sprintf "%h"

let prop ~print name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:500 ~name ~print gen f)

(* Pairs of rationals with 400-650-bit numerators and denominators, the
   size of the simplex tableau entries.  Common factors are planted across
   the operands (a's numerator with b's denominator and vice versa), and
   now and then the denominators are equal, so every reduction path of
   add/sub/mul/div has work to do. *)
let arb_lp_pair =
  QCheck2.Gen.(
    let part = int_range 400 450 >>= Test_bigint.gen_bits in
    let* g = int_range 1 200 >>= Test_bigint.gen_bits
    and* h = int_range 1 200 >>= Test_bigint.gen_bits in
    let* n1 = part and* d1 = part and* n2 = part and* d2 = part in
    let* s1 = bool and* s2 = bool and* same_den = int_bound 3 in
    let signed s v = if s then Bigint.neg v else v in
    let a = Rat.make (signed s1 (Bigint.mul g n1)) (Bigint.mul h d1) in
    let b =
      if same_den = 0 then Rat.make (signed s2 (Bigint.mul h n2)) (Rat.den a)
      else Rat.make (signed s2 (Bigint.mul h n2)) (Bigint.mul g d2)
    in
    return (a, b))

let canonical r =
  Bigint.sign (Rat.den r) > 0
  && Bigint.is_one (Test_bigint.euclid (Rat.num r) (Rat.den r))

(* [r = n / d] for an unreduced fraction with [d > 0], checked by
   cross-multiplication (no gcd involved). *)
let denotes r n d =
  Bigint.equal (Bigint.mul (Rat.num r) d) (Bigint.mul n (Rat.den r))

(* [Rat.approx]'s definition by floor division, which its dyadic fast
   path must reproduce. *)
let approx_by_fdiv q ~bits =
  let n = Bigint.abs (Rat.num q) and d = Rat.den q in
  let k = Bigint.numbits n - Bigint.numbits d in
  let attempt e =
    ( (if e >= 0 then Bigint.fdiv n (Bigint.shift_left d e)
       else Bigint.fdiv (Bigint.shift_left n (-e)) d),
      e )
  in
  let m, e =
    let m, e = attempt (k - bits) in
    if Bigint.numbits m > bits then attempt (k - bits + 1)
    else if Bigint.numbits m < bits then attempt (k - bits - 1)
    else (m, e)
  in
  (m, e, Rat.equal (Rat.mul_pow2 (Rat.of_bigint m) e) (Rat.abs q))

(* Dyadics n / 2^k with up to ~190-bit numerators, trailing zeros
   planted now and then so the exact case comes up. *)
let arb_dyadic =
  QCheck2.Gen.(
    let* limbs = list_size (int_range 1 6) (int_bound ((1 lsl 30) - 1)) in
    let* zeros = int_range 0 70 in
    let* k = int_range (-40) 200 in
    let* neg = bool in
    let n =
      List.fold_left
        (fun acc l -> Bigint.add (Bigint.shift_left acc 30) (Bigint.of_int l))
        Bigint.one limbs
    in
    let n = Bigint.shift_left n zeros in
    return (Rat.mul_pow2 (Rat.of_bigint (if neg then Bigint.neg n else n)) (-k)))

let props =
  let req = Rat.equal in
  [
    prop ~print:QCheck2.Print.(pair rat int) "approx of a dyadic = its fdiv definition"
      QCheck2.Gen.(
        let* q = arb_dyadic in
        (* Half the cases sit at the fewest bits that hold q exactly, or
           one bit below: where the exactness flag turns. *)
        let n = Bigint.abs (Rat.num q) in
        let fit = Bigint.numbits n - Bigint.trailing_zeros n in
        let* bits =
          oneof [ int_range 1 80; map (fun k -> Stdlib.max 1 (fit - k)) (int_range 0 1) ]
        in
        return (q, bits))
      (fun (q, bits) ->
        let m, e, x = Rat.approx q ~bits and m', e', x' = approx_by_fdiv q ~bits in
        Bigint.equal m m' && e = e' && x = x');
    prop ~print:rat "field: a + (-a) = 0" arb_rat (fun a ->
        req (Rat.sub a a) Rat.zero);
    prop ~print:rat "field: a * inv a = 1" arb_rat (fun a ->
        Rat.is_zero a || req (Rat.div a a) Rat.one);
    prop ~print:QCheck2.Print.(triple rat rat rat) "add assoc"
      (QCheck2.Gen.triple arb_rat arb_rat arb_rat)
      (fun (a, b, c) -> req (Rat.add (Rat.add a b) c) (Rat.add a (Rat.add b c)));
    prop ~print:QCheck2.Print.(triple rat rat rat) "mul distributes"
      (QCheck2.Gen.triple arb_rat arb_rat arb_rat)
      (fun (a, b, c) ->
        req (Rat.mul a (Rat.add b c)) (Rat.add (Rat.mul a b) (Rat.mul a c)));
    prop ~print:hexf "of_float exact round-trip" arb_finite_float (fun x ->
        Rat.to_float (Rat.of_float x) = x);
    prop ~print:rat "to_float_dir brackets" arb_rat (fun a ->
        let lo = Rat.to_float_dir Rat.Down a and hi = Rat.to_float_dir Rat.Up a in
        lo <= hi
        && (not (Float.is_finite lo) || Rat.compare (Rat.of_float lo) a <= 0)
        && (not (Float.is_finite hi) || Rat.compare a (Rat.of_float hi) <= 0));
    prop ~print:rat "to_float is Down or Up" arb_rat (fun a ->
        let n = Rat.to_float a in
        n = Rat.to_float_dir Rat.Down a || n = Rat.to_float_dir Rat.Up a);
    prop ~print:QCheck2.Print.(pair hexf hexf)
      "native ops are correctly rounded (cross-check)"
      (QCheck2.Gen.pair arb_finite_float arb_finite_float) (fun (x, y) ->
        let s = x +. y in
        (not (Float.is_finite s))
        || Rat.to_float (Rat.add (Rat.of_float x) (Rat.of_float y)) = s);
    prop ~print:QCheck2.Print.(pair rat int) "mul_pow2 exactness"
      (QCheck2.Gen.pair arb_rat (QCheck2.Gen.int_range (-80) 80))
      (fun (a, k) -> req (Rat.mul_pow2 (Rat.mul_pow2 a k) (-k)) a);
    prop ~print:rat "floor <= x < floor+1" arb_rat (fun a ->
        let f = Rat.of_bigint (Rat.floor a) in
        Rat.compare f a <= 0 && Rat.compare a (Rat.add f Rat.one) < 0);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200 ~name:"canonical form at LP sizes (400-650 bits)"
         ~print:QCheck2.Print.(pair rat rat) arb_lp_pair (fun (a, b) ->
           let open Bigint.Infix in
           let an = Rat.num a and ad = Rat.den a and bn = Rat.num b and bd = Rat.den b in
           let sum = Rat.add a b and diff = Rat.sub a b
           and prod = Rat.mul a b and quot = Rat.div a b in
           List.for_all canonical [ sum; diff; prod; quot ]
           && denotes sum ((an * bd) + (bn * ad)) (ad * bd)
           && denotes diff ((an * bd) - (bn * ad)) (ad * bd)
           && denotes prod (an * bn) (ad * bd)
           && (* b's sign moves to the quotient's numerator *)
           denotes quot
             (Bigint.mul_int (an * bd) (Bigint.sign bn))
             (ad * Bigint.abs bn)));
    prop ~print:QCheck2.Print.(pair rat int) "approx contract"
      (QCheck2.Gen.pair arb_rat (QCheck2.Gen.int_range 1 80))
      (fun (a, bits) ->
        Rat.is_zero a
        ||
        let m, e, exact = Rat.approx a ~bits in
        let lo = Rat.mul_pow2 (Rat.of_bigint m) e in
        let hi = Rat.mul_pow2 (Rat.of_bigint (Bigint.succ m)) e in
        Bigint.numbits m = bits
        && Rat.compare lo (Rat.abs a) <= 0
        && Rat.compare (Rat.abs a) hi < 0
        && exact = Rat.equal lo (Rat.abs a));
  ]

let suite =
  [
    ("canonical form", `Quick, test_canonical_form);
    ("parsing", `Quick, test_parsing);
    ("arithmetic", `Quick, test_arith);
    ("gcd-free fast paths", `Quick, test_fast_paths);
    ("floor/ceil/trunc", `Quick, test_floor_ceil);
    ("decimal strings", `Quick, test_decimal_string);
    ("of_float exact", `Quick, test_of_float_exact);
    ("to_float directed", `Quick, test_to_float_directed);
    ("to_float subnormal/overflow", `Quick, test_to_float_subnormal_overflow);
    ("approx primitive", `Quick, test_approx);
  ]
  @ props
