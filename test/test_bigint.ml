(* Unit and property tests for the arbitrary-precision integer substrate. *)

let b = Bigint.of_string
let bi = Bigint.of_int

let check_eq msg want got =
  Alcotest.(check string) msg want (Bigint.to_string got)

(* ---------- unit tests ---------- *)

let test_constants () =
  check_eq "zero" "0" Bigint.zero;
  check_eq "one" "1" Bigint.one;
  check_eq "two" "2" Bigint.two;
  check_eq "minus_one" "-1" Bigint.minus_one;
  check_eq "ten" "10" Bigint.ten

let test_of_int_roundtrip () =
  List.iter
    (fun n ->
      Alcotest.(check (option int))
        (string_of_int n) (Some n)
        (Bigint.to_int (bi n)))
    [ 0; 1; -1; 42; -42; max_int; min_int; 1 lsl 30; (1 lsl 30) - 1 ]

let test_of_string_forms () =
  check_eq "plus" "123" (b "+123");
  check_eq "underscores" "1000000" (b "1_000_000");
  check_eq "hex" "255" (b "0xff");
  check_eq "hex upper" "3735928559" (b "0XDEADBEEF");
  check_eq "neg hex" "-16" (b "-0x10");
  Alcotest.check_raises "empty" (Invalid_argument "Bigint.of_string: empty string")
    (fun () -> ignore (b ""));
  Alcotest.check_raises "garbage"
    (Invalid_argument "Bigint.of_string: bad character 'z'") (fun () ->
      ignore (b "1z3"))

let test_add_sub_known () =
  check_eq "carry chain"
    "10000000000000000000000000000000"
    (Bigint.add (b "9999999999999999999999999999999") (b "1"));
  check_eq "borrow chain" "9999999999999999999999999999999"
    (Bigint.sub (b "10000000000000000000000000000000") (b "1"));
  check_eq "sign flip" "-1" (Bigint.sub (b "1") (b "2"));
  check_eq "cancel" "0" (Bigint.sub (b "12345678901234567890") (b "12345678901234567890"))

let test_mul_known () =
  check_eq "paper-scale product"
    "-12193263113702179522496570642237463801111263526900"
    (Bigint.mul (b "123456789012345678901234567890") (b "-98765432109876543210"));
  check_eq "square"
    "15241578753238836750495351562536198787501905199875019052100"
    (Bigint.mul (b "123456789012345678901234567890") (b "123456789012345678901234567890"))

let test_karatsuba_consistency () =
  let open Bigint.Infix in
  (* Operands of ~2,400 bits (80 limbs), far past any product the LP
     forms; compare against a decomposition identity instead of a
     second multiplier:
     (a*B + c)(d*B + e) = ad B^2 + (ae + cd) B + ce. *)
  let big = Bigint.pow (b "1234567890987654321") 40 in
  let a = Bigint.shift_right big 600 in
  let c = big - Bigint.shift_left a 600 in
  let d = a + Bigint.one and e = c + Bigint.two in
  let other = Bigint.shift_left d 600 + e in
  let direct = big * other in
  let recomposed =
    Bigint.shift_left (a * d) 1200
    + Bigint.shift_left ((a * e) + (c * d)) 600
    + (c * e)
  in
  Alcotest.(check bool) "karatsuba identity" true (direct = recomposed)

let test_divmod_properties_known () =
  let q, r = Bigint.divmod (b "7") (b "2") in
  check_eq "7/2 q" "3" q;
  check_eq "7/2 r" "1" r;
  let q, r = Bigint.divmod (b "-7") (b "2") in
  check_eq "-7/2 q" "-3" q;
  check_eq "-7/2 r" "-1" r;
  let q, r = Bigint.divmod (b "7") (b "-2") in
  check_eq "7/-2 q" "-3" q;
  check_eq "7/-2 r" "1" r;
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Bigint.divmod Bigint.one Bigint.zero))

let test_fdiv_cdiv () =
  check_eq "fdiv -7 2" "-4" (Bigint.fdiv (bi (-7)) (bi 2));
  check_eq "cdiv -7 2" "-3" (Bigint.cdiv (bi (-7)) (bi 2));
  check_eq "fdiv 7 -2" "-4" (Bigint.fdiv (bi 7) (bi (-2)));
  check_eq "cdiv 7 2" "4" (Bigint.cdiv (bi 7) (bi 2));
  let q, r = Bigint.fdivmod (bi (-7)) (bi 2) in
  check_eq "fdivmod q" "-4" q;
  check_eq "fdivmod r" "1" r

let test_shifts () =
  check_eq "shl" "1267650600228229401496703205376" (Bigint.pow2 100);
  check_eq "shr floor pos" "3" (Bigint.shift_right (bi 7) 1);
  check_eq "shr floor neg" "-4" (Bigint.shift_right (bi (-7)) 1);
  check_eq "shr all" "0" (Bigint.shift_right (bi 7) 10);
  check_eq "shr all neg" "-1" (Bigint.shift_right (bi (-7)) 10)

let test_bits () =
  Alcotest.(check int) "numbits 0" 0 (Bigint.numbits Bigint.zero);
  Alcotest.(check int) "numbits 1" 1 (Bigint.numbits Bigint.one);
  Alcotest.(check int) "numbits 2^100" 101 (Bigint.numbits (Bigint.pow2 100));
  Alcotest.(check bool) "testbit" true (Bigint.testbit (bi 5) 2);
  Alcotest.(check bool) "testbit off" false (Bigint.testbit (bi 5) 1);
  Alcotest.(check int) "trailing zeros" 100
    (Bigint.trailing_zeros (Bigint.pow2 100));
  Alcotest.(check int) "trailing zeros odd" 0 (Bigint.trailing_zeros (bi 5))

let test_gcd_pow () =
  check_eq "gcd" "6" (Bigint.gcd (bi 48) (bi (-18)));
  check_eq "gcd zero" "5" (Bigint.gcd (bi 5) Bigint.zero);
  check_eq "pow" "1024" (Bigint.pow (bi 2) 10);
  check_eq "pow 0" "1" (Bigint.pow (bi 7) 0);
  Alcotest.check_raises "neg pow"
    (Invalid_argument "Bigint.pow: negative exponent") (fun () ->
      ignore (Bigint.pow (bi 2) (-1)))

let test_to_float_correct_rounding () =
  (* 2^53 + 1 is a tie -> rounds to even (2^53); +3 rounds up. *)
  Alcotest.(check (float 0.0)) "tie to even" 9007199254740992.0
    (Bigint.to_float (b "9007199254740993"));
  Alcotest.(check (float 0.0)) "round up" 9007199254740996.0
    (Bigint.to_float (b "9007199254740995"));
  Alcotest.(check (float 0.0)) "huge" Float.infinity
    (Bigint.to_float (Bigint.pow2 1100));
  Alcotest.(check (float 0.0)) "neg huge" Float.neg_infinity
    (Bigint.to_float (Bigint.neg (Bigint.pow2 1100)))

(* The limb-level scalar multiply must agree with the general product for
   every scalar size class: single limb, two limbs, three limbs (> 2^60),
   the native extremes, and negatives. *)
let test_mul_int_large () =
  let scalars =
    [
      0; 1; -1; 7; -7;
      (1 lsl 30) - 1; 1 lsl 30; (1 lsl 30) + 1;  (* one/two limb boundary *)
      -(1 lsl 30); (1 lsl 45) + 12345; -((1 lsl 45) + 12345);
      (1 lsl 60) - 1; 1 lsl 60; (1 lsl 60) + 987654321;  (* three limbs *)
      max_int; -max_int; min_int; min_int + 1;
    ]
  in
  let values =
    [ Bigint.zero; Bigint.one; Bigint.minus_one; bi max_int;
      b "123456789123456789123456789123456789"; Bigint.neg (b "999999999999999999999999");
      Bigint.pow2 200 ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun n ->
          check_eq
            (Printf.sprintf "%s * %d" (Bigint.to_string a) n)
            (Bigint.to_string (Bigint.mul a (bi n)))
            (Bigint.mul_int a n))
        scalars)
    values

(* ---------- gcd against a Euclid reference ---------- *)

(* Test-only reference: Euclid's algorithm with Bigint.rem. *)
let rec euclid a b =
  if Bigint.is_zero b then Bigint.abs a else euclid b (Bigint.rem a b)

let check_gcd msg a b' =
  check_eq msg (Bigint.to_string (euclid a b')) (Bigint.gcd a b');
  check_eq (msg ^ " (swapped)")
    (Bigint.to_string (euclid a b'))
    (Bigint.gcd b' a)

(* The operand shapes Lehmer's gcd handles by a special path: zero, one,
   equal operands, powers of two, the 2-limb (60-bit) native cutoff, and
   sizes more than a limb apart (the division fallback). *)
let test_gcd_edges () =
  let p2 = Bigint.pow2 and m1 k = Bigint.pred (Bigint.pow2 k) in
  let fib n =
    let rec go a b' n = if n = 0 then a else go b' (Bigint.add a b') (n - 1) in
    go Bigint.zero Bigint.one n
  in
  check_eq "gcd 0 0" "0" (Bigint.gcd Bigint.zero Bigint.zero);
  check_eq "gcd 0 -7" "7" (Bigint.gcd Bigint.zero (bi (-7)));
  check_eq "gcd -12 -18" "6" (Bigint.gcd (bi (-12)) (bi (-18)));
  let big = b "123456789012345678901234567890123456789012345678901234567890" in
  List.iter
    (fun (msg, x, y) -> check_gcd msg x y)
    [
      ("one", big, Bigint.one);
      ("equal", big, big);
      ("equal, opposite signs", big, Bigint.neg big);
      ("powers of two", p2 700, p2 333);
      ("power of two vs odd", p2 700, m1 701);
      ("power of two times big", Bigint.shift_left big 90, p2 120);
      ("all-ones", m1 900, m1 600);
      ("at the 60-bit cutoff", m1 60, p2 59);
      ("just over the cutoff", p2 60, Bigint.succ (p2 59));
      ("61 vs 59 bits", Bigint.add (p2 60) (bi 12345),
        Bigint.add (p2 58) (bi 6789));
      ("two limbs vs three", m1 61, m1 60);
      ("sizes 31 bits apart", Bigint.mul big (p2 31), Bigint.succ big);
      ("sizes 400 bits apart", Bigint.pow big 4, Bigint.add big (bi 7));
      ("one limb vs many", Bigint.pow big 5, bi 999_999_937);
      (* Every quotient is 1: the longest possible Euclid run. *)
      ("consecutive Fibonacci", fib 1500, fib 1499);
    ]

(* A uniformly random magnitude of exactly [bits] bits. *)
let gen_bits bits =
  QCheck2.Gen.(
    let+ chunks =
      list_size (return ((bits + 29) / 30)) (int_bound ((1 lsl 30) - 1))
    in
    let v =
      List.fold_left
        (fun acc c -> Bigint.add (Bigint.shift_left acc 30) (bi c))
        Bigint.zero chunks
    in
    let top = Bigint.pow2 (bits - 1) in
    Bigint.add top (Bigint.rem v top))

(* Operands of 1-1100 bits: a planted common factor times random
   cofactors of independent sizes (so sizes from equal to hundreds of
   bits apart), mixed signs, and now and then an all-ones or power-of-two
   cofactor. *)
let arb_gcd_pair =
  QCheck2.Gen.(
    let shaped =
      let* bits = int_range 1 800 in
      let* shape = int_bound 5 in
      match shape with
      | 0 -> return (Bigint.pred (Bigint.pow2 bits))
      | 1 -> return (Bigint.pow2 (bits - 1))
      | _ -> gen_bits bits
    in
    let* g = int_range 1 300 >>= gen_bits in
    let* x = shaped and* y = shaped in
    let* sx = bool and* sy = bool in
    let signed s v = if s then Bigint.neg v else v in
    return (signed sx (Bigint.mul g x), signed sy (Bigint.mul g y)))

let print_pair (x, y) = Bigint.to_string x ^ ", " ^ Bigint.to_string y

(* ---------- property tests ---------- *)

(* Random decimal strings of widely varying size, signed. *)
let arb_bigint =
  QCheck2.Gen.(
    let* n_chunks = int_range 1 8 in
    let* chunks = list_size (return n_chunks) (int_bound 999_999_999) in
    let* neg = bool in
    let s = String.concat "" (List.map string_of_int (1 :: chunks)) in
    return (Bigint.of_string (if neg then "-" ^ s else s)))

let big = Bigint.to_string

let prop ~print name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:500 ~name ~print gen f)

let props =
  let beq = Bigint.equal in
  let badd = Bigint.add and bmul = Bigint.mul in
  [
    prop ~print:big "string round-trip" arb_bigint (fun x ->
        beq (Bigint.of_string (Bigint.to_string x)) x);
    prop ~print:print_pair "add comm" (QCheck2.Gen.pair arb_bigint arb_bigint)
      (fun (a, bb) -> beq (badd a bb) (badd bb a));
    prop ~print:QCheck2.Print.(pair big int) "mul_int agrees with mul"
      (QCheck2.Gen.pair arb_bigint QCheck2.Gen.int)
      (fun (a, n) -> beq (Bigint.mul_int a n) (bmul a (Bigint.of_int n)));
    prop ~print:print_pair "mul comm" (QCheck2.Gen.pair arb_bigint arb_bigint)
      (fun (a, bb) -> beq (bmul a bb) (bmul bb a));
    prop ~print:QCheck2.Print.(triple big big big) "distributivity"
      (QCheck2.Gen.triple arb_bigint arb_bigint arb_bigint)
      (fun (a, bb, c) -> beq (bmul a (badd bb c)) (badd (bmul a bb) (bmul a c)));
    prop ~print:print_pair "divmod invariant"
      (QCheck2.Gen.pair arb_bigint arb_bigint)
      (fun (a, bb) ->
        Bigint.is_zero bb
        ||
        let q, r = Bigint.divmod a bb in
        beq a (badd (bmul q bb) r)
        && Bigint.compare (Bigint.abs r) (Bigint.abs bb) < 0
        && (Bigint.is_zero r || Bigint.sign r = Bigint.sign a));
    prop ~print:print_pair "fdivmod invariant"
      (QCheck2.Gen.pair arb_bigint arb_bigint)
      (fun (a, bb) ->
        Bigint.is_zero bb
        ||
        let q, r = Bigint.fdivmod a bb in
        beq a (badd (bmul q bb) r)
        && (Bigint.is_zero r || Bigint.sign r = Bigint.sign bb));
    prop ~print:QCheck2.Print.(pair big int) "shift inverse"
      (QCheck2.Gen.pair arb_bigint (QCheck2.Gen.int_bound 200))
      (fun (a, k) -> beq (Bigint.shift_right (Bigint.shift_left a k) k) a);
    prop ~print:print_pair "gcd divides"
      (QCheck2.Gen.pair arb_bigint arb_bigint) (fun (a, bb) ->
        (Bigint.is_zero a && Bigint.is_zero bb)
        ||
        let g = Bigint.gcd a bb in
        Bigint.is_zero (Bigint.rem a g) && Bigint.is_zero (Bigint.rem bb g));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:1000 ~print:print_pair
         ~name:"gcd agrees with Euclid (1-1100 bits)" arb_gcd_pair (fun (x, y) ->
           let g = Bigint.gcd x y in
           Bigint.sign g >= 0 && Bigint.equal g (euclid x y)));
    prop ~print:big "numbits bound" arb_bigint (fun a ->
        Bigint.is_zero a
        ||
        let n = Bigint.numbits a in
        Bigint.compare (Bigint.abs a) (Bigint.pow2 n) < 0
        && Bigint.compare (Bigint.pow2 (n - 1)) (Bigint.abs a) <= 0);
    prop ~print:print_pair "compare antisym"
      (QCheck2.Gen.pair arb_bigint arb_bigint)
      (fun (a, bb) -> Bigint.compare a bb = -Bigint.compare bb a);
  ]

let suite =
  [
    ("constants", `Quick, test_constants);
    ("of_int round-trip", `Quick, test_of_int_roundtrip);
    ("of_string forms", `Quick, test_of_string_forms);
    ("add/sub carries", `Quick, test_add_sub_known);
    ("mul known answers", `Quick, test_mul_known);
    ("mul_int limb-level", `Quick, test_mul_int_large);
    ("karatsuba identity", `Quick, test_karatsuba_consistency);
    ("divmod semantics", `Quick, test_divmod_properties_known);
    ("fdiv/cdiv", `Quick, test_fdiv_cdiv);
    ("shifts", `Quick, test_shifts);
    ("bit operations", `Quick, test_bits);
    ("gcd/pow", `Quick, test_gcd_pow);
    ("gcd edge shapes vs Euclid", `Quick, test_gcd_edges);
    ("to_float correct rounding", `Quick, test_to_float_correct_rounding);
  ]
  @ props
