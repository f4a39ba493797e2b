(* Tests for the parameterized software floating point formats, including
   the round-to-odd mode and the double-rounding property that RLibm-All
   relies on. *)

open Softfp

let b16 = binary16

let test_format_parameters () =
  Alcotest.(check int) "binary32 width" 32 (width binary32);
  Alcotest.(check int) "fp34 width" 34 (width fp34);
  Alcotest.(check int) "fp34 prec" 26 fp34.prec;
  Alcotest.(check int) "binary32 emax" 127 (emax binary32);
  Alcotest.(check int) "binary32 emin" (-126) (emin binary32);
  Alcotest.(check int) "b16 emax" 15 (emax b16);
  Alcotest.(check int) "bfloat16 width" 16 (width bfloat16);
  Alcotest.(check int) "widen" 26 (with_extra_prec binary32 2).prec;
  Alcotest.check_raises "width > 63"
    (Invalid_argument "Softfp.make_fmt: width > 63") (fun () ->
      ignore (make_fmt ~ebits:11 ~prec:53))

let test_classify () =
  Alcotest.(check bool) "zero" true (classify b16 (zero_bits b16) = Zero);
  Alcotest.(check bool) "neg zero" true
    (classify b16 (neg_zero_bits b16) = Zero);
  Alcotest.(check bool) "inf" true (classify b16 (inf_bits b16 ~neg:false) = Inf);
  Alcotest.(check bool) "nan" true (classify b16 (nan_bits b16) = NaN);
  Alcotest.(check bool) "min sub" true
    (classify b16 (min_subnormal_bits b16 ~neg:false) = Subnormal);
  Alcotest.(check bool) "max finite" true
    (classify b16 (max_finite_bits b16 ~neg:false) = Normal)

let test_decode_known_binary16 () =
  (* Known binary16 patterns. *)
  let check name bits expect =
    Alcotest.(check (float 0.0)) name expect (to_float b16 (Int64.of_int bits))
  in
  check "one" 0x3C00 1.0;
  check "two" 0x4000 2.0;
  check "neg one" 0xBC00 (-1.0);
  check "1.5" 0x3E00 1.5;
  check "max" 0x7BFF 65504.0;
  check "min sub" 0x0001 (Float.ldexp 1.0 (-24));
  check "min normal" 0x0400 (Float.ldexp 1.0 (-14))

let test_encode_matches_native_binary32 () =
  (* The binary32 encoder must agree with the hardware float cast (RNE). *)
  let cases =
    [ 0.1; 1.0; -1.0; 3.14159; 1.0e38; -1.0e38; 1.0e-38; 1.0e-45;
      65504.1; Float.ldexp 1.0 (-126); Float.ldexp 1.0 (-149) ]
  in
  List.iter
    (fun x ->
      let native =
        Int64.logand (Int64.of_int32 (Int32.bits_of_float x)) 0xFFFFFFFFL
      in
      let soft = of_rat binary32 RNE (Rat.of_float x) in
      Alcotest.(check int64) (Printf.sprintf "%h" x) native soft)
    cases

let test_round_to_odd_semantics () =
  (* Exactly representable values stay put (even or odd pattern). *)
  let one = of_rat b16 RTO Rat.one in
  Alcotest.(check (float 0.0)) "exact 1" 1.0 (to_float b16 one);
  (* An inexact value must round to an adjacent value with odd pattern. *)
  let q = Rat.of_ints 1 3 in
  let b = of_rat b16 RTO q in
  Alcotest.(check bool) "odd pattern" true (frac_odd b16 b);
  let v = to_rat b16 b in
  let dist = Rat.abs (Rat.sub v q) in
  (* within one ulp of 1/3 (~2^-12 at this scale) *)
  Alcotest.(check bool) "adjacent" true
    (Rat.compare dist (Rat.mul_pow2 Rat.one (-11)) < 0)

let test_rounding_modes_quarter () =
  (* 1 + 1/4 ulp in binary16: prec 11, ulp of 1.0 is 2^-10. *)
  let x = Rat.add Rat.one (Rat.mul_pow2 Rat.one (-12)) in
  let as_f m = to_float b16 (of_rat b16 m x) in
  Alcotest.(check (float 0.0)) "RNE down" 1.0 (as_f RNE);
  Alcotest.(check (float 0.0)) "RNA down" 1.0 (as_f RNA);
  Alcotest.(check (float 0.0)) "RTZ down" 1.0 (as_f RTZ);
  Alcotest.(check (float 0.0)) "RTD down" 1.0 (as_f RTD);
  let up = 1.0 +. Float.ldexp 1.0 (-10) in
  Alcotest.(check (float 0.0)) "RTU up" up (as_f RTU);
  Alcotest.(check (float 0.0)) "RTO odd" up (as_f RTO);
  (* negative mirror *)
  let nx = Rat.neg x in
  let as_f m = to_float b16 (of_rat b16 m nx) in
  Alcotest.(check (float 0.0)) "neg RTU" (-1.0) (as_f RTU);
  Alcotest.(check (float 0.0)) "neg RTD" (-.up) (as_f RTD);
  Alcotest.(check (float 0.0)) "neg RTZ" (-1.0) (as_f RTZ)

let test_ties () =
  (* exactly halfway between 1 and 1 + ulp: 1 + 2^-11 *)
  let x = Rat.add Rat.one (Rat.mul_pow2 Rat.one (-11)) in
  let up = 1.0 +. Float.ldexp 1.0 (-10) in
  Alcotest.(check (float 0.0)) "RNE tie -> even" 1.0
    (to_float b16 (of_rat b16 RNE x));
  Alcotest.(check (float 0.0)) "RNA tie -> away" up
    (to_float b16 (of_rat b16 RNA x));
  (* halfway between 1 + ulp and 1 + 2ulp: rounds up to even under RNE *)
  let x2 = Rat.add Rat.one (Rat.mul_pow2 (Rat.of_int 3) (-11)) in
  Alcotest.(check (float 0.0)) "RNE tie -> even (up)" (1.0 +. Float.ldexp 1.0 (-9))
    (to_float b16 (of_rat b16 RNE x2))

let test_overflow_modes () =
  let huge = Rat.mul_pow2 Rat.one 100 in
  let check name mode expect_cls neg =
    let b = of_rat b16 mode (if neg then Rat.neg huge else huge) in
    Alcotest.(check bool) name true (classify b16 b = expect_cls)
  in
  check "RNE -> inf" RNE Inf false;
  check "RNA -> inf" RNA Inf false;
  check "RTZ -> max" RTZ Normal false;
  check "RTO -> max (odd)" RTO Normal false;
  check "RTU pos -> inf" RTU Inf false;
  check "RTU neg -> -max" RTU Normal true;
  check "RTD neg -> -inf" RTD Inf true;
  check "RTD pos -> max" RTD Normal false;
  (* RTO overflow result must be the odd-patterned max finite *)
  let b = of_rat b16 RTO huge in
  Alcotest.(check int64) "RTO max finite" (max_finite_bits b16 ~neg:false) b;
  Alcotest.(check bool) "max finite pattern odd" true (frac_odd b16 b)

let test_underflow_modes () =
  let tiny = Rat.mul_pow2 Rat.one (-80) in
  let ms = min_subnormal_bits b16 ~neg:false in
  Alcotest.(check int64) "RNE -> 0" (zero_bits b16) (of_rat b16 RNE tiny);
  Alcotest.(check int64) "RTZ -> 0" (zero_bits b16) (of_rat b16 RTZ tiny);
  Alcotest.(check int64) "RTU -> minsub" ms (of_rat b16 RTU tiny);
  Alcotest.(check int64) "RTO -> minsub (odd)" ms (of_rat b16 RTO tiny);
  Alcotest.(check int64) "neg RTD -> -minsub"
    (min_subnormal_bits b16 ~neg:true)
    (of_rat b16 RTD (Rat.neg tiny));
  Alcotest.(check int64) "neg RTU -> -0" (neg_zero_bits b16)
    (of_rat b16 RTU (Rat.neg tiny))

let test_succ_pred () =
  let one = of_rat b16 RNE Rat.one in
  let s = succ b16 one in
  Alcotest.(check (float 0.0)) "succ 1" (1.0 +. Float.ldexp 1.0 (-10))
    (to_float b16 s);
  Alcotest.(check int64) "pred succ = id" one (pred b16 s);
  (* crossing zero *)
  let pz = zero_bits b16 and nz = neg_zero_bits b16 in
  Alcotest.(check int64) "succ +0 = minsub" (min_subnormal_bits b16 ~neg:false)
    (succ b16 pz);
  Alcotest.(check int64) "succ -0 = +0" pz (succ b16 nz);
  Alcotest.(check int64) "pred +0 = -0" nz (pred b16 pz);
  Alcotest.(check int64) "pred -0 = -minsub" (min_subnormal_bits b16 ~neg:true)
    (pred b16 nz);
  (* into infinity *)
  Alcotest.(check bool) "succ max = inf" true
    (classify b16 (succ b16 (max_finite_bits b16 ~neg:false)) = Inf)

let test_iter_finite_count () =
  let small = make_fmt ~ebits:3 ~prec:3 in
  let n = ref 0 in
  iter_finite small (fun _ -> incr n);
  Alcotest.(check int) "count matches" (count_finite small) !n;
  Alcotest.(check int) "count formula" (2 * 7 * 4) !n

(* ---------- native rounding = Rat reference ----------

   [round_float] and [narrow] round through the native-int [of_dyadic];
   [of_rat] on the exact rational value is the reference they must match
   bit for bit, signed zeros included. *)

let all_modes = RTO :: all_standard_modes

let ref_round_float fmt mode x =
  if Float.is_nan x then nan_bits fmt
  else if Float.abs x = Float.infinity then inf_bits fmt ~neg:(x < 0.0)
  else if x = 0.0 then
    if Float.sign_bit x then neg_zero_bits fmt else zero_bits fmt
  else of_rat fmt mode (Rat.of_float x)

let ref_narrow ~src ~dst mode b =
  match classify src b with
  | NaN -> nan_bits dst
  | Inf -> inf_bits dst ~neg:(sign_bit src b)
  | Zero -> if sign_bit src b then neg_zero_bits dst else zero_bits dst
  | Subnormal | Normal -> of_rat dst mode (to_rat src b)

let fmt_name f = Printf.sprintf "(%d,%d)" f.ebits f.prec

(* Compare every (format, mode) of [fmts] on [xs]; fail on the first
   mismatch with enough context to replay it. *)
let check_round_float fmts xs =
  List.iter
    (fun fmt ->
      Array.iter
        (fun x ->
          List.iter
            (fun mode ->
              let want = ref_round_float fmt mode x
              and got = round_float fmt mode x in
              if not (Int64.equal want got) then
                Alcotest.failf "round_float %s %s %h: native 0x%Lx, Rat 0x%Lx"
                  (fmt_name fmt) (mode_to_string mode) x got want)
            all_modes)
        xs)
    fmts

let diff_fmts =
  List.map
    (fun (ebits, prec) -> make_fmt ~ebits ~prec)
    [ (5, 3); (5, 11); (8, 8); (8, 26); (11, 4); (12, 4); (11, 52) ]

(* Every finite pattern of the mini universe's 15-bit round-to-odd target
   narrowed into each (5, 2..10) format under every mode — the exact set
   of re-roundings exhaustive verification performs. *)
let test_narrow_exhaustive_mini () =
  let src = make_fmt ~ebits:5 ~prec:10 in
  let dsts = List.init 9 (fun i -> make_fmt ~ebits:5 ~prec:(2 + i)) in
  let n = ref 0 in
  iter_finite src (fun b ->
      (* [to_rat] once per pattern: [ref_narrow] inlined *)
      let zero = classify src b = Zero in
      let q = if zero then Rat.zero else to_rat src b in
      List.iter
        (fun dst ->
          List.iter
            (fun mode ->
              incr n;
              let want =
                if zero then ref_narrow ~src ~dst mode b
                else of_rat dst mode q
              and got = narrow ~src ~dst mode b in
              if not (Int64.equal want got) then
                Alcotest.failf "narrow %s -> %s %s 0x%Lx: native 0x%Lx, Rat 0x%Lx"
                  (fmt_name src) (fmt_name dst) (mode_to_string mode) b got
                  want)
            all_modes)
        dsts);
  Alcotest.(check int) "every pattern x format x mode" (31744 * 9 * 6) !n

(* Doubles aimed at every rounding case of each format: uniform bit
   patterns, double subnormals, values spread over the format's range,
   exact ties at every drop position (down to half the smallest
   subnormal and below), and the overflow / underflow boundaries with
   their neighbours — each with both signs. *)
let test_round_float_seeded () =
  let rng = Random.State.make [| 0x50f7; 15 |] in
  let bits53 () = Random.State.bits rng lor (Random.State.bits rng lsl 30) in
  let both l = List.concat_map (fun x -> [ x; -.x ]) l in
  let around x = [ Float.pred x; x; Float.succ x ] in
  let uniform =
    List.init 2000 (fun _ -> Int64.float_of_bits (Random.State.int64 rng Int64.max_int))
  in
  let subnormals =
    List.init 500 (fun _ ->
        Int64.float_of_bits (Int64.of_int (bits53 () land 0xF_FFFF_FFFF_FFFF)))
  in
  check_round_float diff_fmts (Array.of_list (both (uniform @ subnormals)));
  List.iter
    (fun fmt ->
      let p = fmt.prec and emin = emin fmt and emax = emax fmt in
      let spread =
        List.init 1000 (fun _ ->
            let m = bits53 () land ((1 lsl 53) - 1) lor (1 lsl 52) in
            let e = emin - p - 4 + Random.State.int rng (emax - emin + p + 8) in
            Float.ldexp (Float.of_int m) (e - 52))
      in
      (* A tie drops d bits reading 10...0.  At the subnormal quantum
         2^(emin - p + 1), d ranges over 1..53 (d = 53 is exactly half the
         smallest subnormal); in the normal range a full double drops
         53 - p bits, at any exponent. *)
      let quantum = emin - p + 1 in
      let tie d =
        if d >= 53 then 1 lsl 52
        else
          (bits53 () land ((1 lsl (53 - d)) - 1)) lsl d
          lor (1 lsl (d - 1))
          lor (1 lsl 52)
      in
      let sub_ties =
        List.concat_map
          (fun d ->
            List.init 8 (fun _ -> Float.ldexp (Float.of_int (tie d)) (quantum - d)))
          (List.init 53 (fun i -> i + 1))
      in
      let normal_ties =
        if p >= 53 then []
        else
          List.init 400 (fun _ ->
              let e = emin + Random.State.int rng (emax - emin + 1) in
              Float.ldexp (Float.of_int (tie (53 - p))) (e - 52))
      in
      let boundaries =
        List.concat_map around
          [
            (* max finite + half an ulp: the overflow threshold *)
            Float.ldexp (Float.of_int ((1 lsl (p + 1)) - 1)) (emax - p);
            Float.ldexp (Float.of_int ((1 lsl p) - 1)) (emax - p + 1);
            Float.ldexp 1.0 (emax + 1);
            (* half the smallest subnormal, the smallest subnormal, the
               smallest normal *)
            Float.ldexp 1.0 (quantum - 1);
            Float.ldexp 1.0 quantum;
            Float.ldexp 1.0 emin;
          ]
        |> List.filter Float.is_finite
      in
      check_round_float [ fmt ]
        (Array.of_list (both (spread @ sub_ties @ normal_ties @ boundaries))))
    diff_fmts

(* Random finite patterns (and the boundary patterns) of every format in
   the list, narrowed into every other one. *)
let test_narrow_seeded () =
  let rng = Random.State.make [| 0x4a77; 15 |] in
  List.iter
    (fun src ->
      (* finite patterns of one sign (count_finite overflows at width 63) *)
      let half = ((1 lsl src.ebits) - 1) lsl (src.prec - 1) in
      let pats =
        [
          zero_bits src; neg_zero_bits src;
          min_subnormal_bits src ~neg:false; min_subnormal_bits src ~neg:true;
          max_finite_bits src ~neg:false; max_finite_bits src ~neg:true;
          inf_bits src ~neg:false; inf_bits src ~neg:true; nan_bits src;
        ]
        @ List.init 300 (fun _ ->
              let o = Random.State.full_int rng half in
              of_ordinal src (if Random.State.bool rng then o else -o - 1))
      in
      List.iter
        (fun dst ->
          List.iter
            (fun b ->
              List.iter
                (fun mode ->
                  let want = ref_narrow ~src ~dst mode b
                  and got = narrow ~src ~dst mode b in
                  if not (Int64.equal want got) then
                    Alcotest.failf
                      "narrow %s -> %s %s 0x%Lx: native 0x%Lx, Rat 0x%Lx"
                      (fmt_name src) (fmt_name dst) (mode_to_string mode) b
                      got want)
                all_modes)
            pats)
        diff_fmts)
    diff_fmts

(* The core on its whole domain: significands up to max_int (62 bits),
   exponents across every format's range and beyond. *)
let test_of_dyadic_seeded () =
  let rng = Random.State.make [| 0xd7ad; 15 |] in
  List.iter
    (fun fmt ->
      for _ = 1 to 1500 do
        let m =
          Int64.to_int (Int64.shift_right_logical (Random.State.bits64 rng) 2)
          lsr Random.State.int rng 62
        in
        let span = emax fmt + fmt.prec + 70 in
        let e = Random.State.int rng (2 * span) - span in
        let neg = Random.State.bool rng in
        List.iter
          (fun mode ->
            let q = Rat.mul_pow2 (Rat.of_int m) e in
            let want =
              if m = 0 then if neg then neg_zero_bits fmt else zero_bits fmt
              else of_rat fmt mode (if neg then Rat.neg q else q)
            and got = of_dyadic fmt mode ~neg m e in
            if not (Int64.equal want got) then
              Alcotest.failf "of_dyadic %s %s m=%d e=%d neg=%b: 0x%Lx, Rat 0x%Lx"
                (fmt_name fmt) (mode_to_string mode) m e neg got want)
          all_modes
      done)
    diff_fmts;
  Alcotest.check_raises "negative significand"
    (Invalid_argument "Softfp.of_dyadic: negative significand") (fun () ->
      ignore (of_dyadic binary16 RNE ~neg:false (-1) 0))

(* ---------- property tests ---------- *)

let arb_rat_small =
  QCheck2.Gen.(
    let* n = int_range (-2_000_000) 2_000_000 in
    let* d = int_range 1 2_000_000 in
    let* s = int_range (-20) 20 in
    return (Rat.mul_pow2 (Rat.of_ints n d) s))

let prop name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:400 ~name gen f)

let decode_ok fmt bits = is_finite fmt bits

let props =
  [
    prop "rounding is monotone (RNE, b16)"
      (QCheck2.Gen.pair arb_rat_small arb_rat_small) (fun (a, b) ->
        let a, b = if Rat.compare a b <= 0 then (a, b) else (b, a) in
        let fa = of_rat b16 RNE a and fb = of_rat b16 RNE b in
        (not (decode_ok b16 fa && decode_ok b16 fb))
        || ordinal b16 fa <= ordinal b16 fb);
    prop "RTD <= RNE <= RTU (b16)" arb_rat_small (fun a ->
        let d = of_rat b16 RTD a and n = of_rat b16 RNE a and u = of_rat b16 RTU a in
        (not (decode_ok b16 d && decode_ok b16 n && decode_ok b16 u))
        || (ordinal b16 d <= ordinal b16 n && ordinal b16 n <= ordinal b16 u));
    prop "idempotent re-rounding (all modes)" arb_rat_small (fun a ->
        List.for_all
          (fun m ->
            let b = of_rat b16 m a in
            (* zero results are excluded: Rat cannot carry the sign of
               zero, so -0 legitimately re-rounds to +0 *)
            (not (decode_ok b16 b))
            || classify b16 b = Zero
            || Int64.equal b (of_rat b16 m (to_rat b16 b)))
          (RTO :: all_standard_modes));
    prop "RTO inexact results are odd" arb_rat_small (fun a ->
        let b = of_rat b16 RTO a in
        (not (decode_ok b16 b))
        || Rat.equal (to_rat b16 b) a
        || frac_odd b16 b);
    prop "round-to-odd double rounding = direct rounding"
      (QCheck2.Gen.pair arb_rat_small (QCheck2.Gen.int_range 7 11))
      (fun (a, k) ->
        (* wide = (11+2)-sig-bit format, narrow = k bits total with 5 ebits *)
        let wide = make_fmt ~ebits:5 ~prec:13 in
        let narrow_fmt = make_fmt ~ebits:5 ~prec:(k - 5) in
        let wide_ro = of_rat wide RTO a in
        List.for_all
          (fun m ->
            Int64.equal
              (of_rat narrow_fmt m a)
              (narrow ~src:wide ~dst:narrow_fmt m wide_ro))
          all_standard_modes);
    prop "ordinal respects value order" (QCheck2.Gen.pair arb_rat_small arb_rat_small)
      (fun (a, b) ->
        let fa = of_rat b16 RNE a and fb = of_rat b16 RNE b in
        (not (decode_ok b16 fa && decode_ok b16 fb))
        || (Rat.compare (to_rat b16 fa) (to_rat b16 fb) < 0)
           = (ordinal b16 fa < ordinal b16 fb
             && not (Rat.equal (to_rat b16 fa) (to_rat b16 fb))));
  ]

(* The native decode equals the exact Rat route bit for bit: on every
   finite pattern of small formats covering both the native path (prec
   <= 53, ebits <= 11, subnormals included) and the Rat fallback (ebits
   12), on seeded binary32 patterns, and on a format wider than a
   double's significand (prec 55, the Rat fallback). *)
let test_decode_native_eq_rat () =
  let check fmt b =
    (* A Rat has no signed zero: zeros decode by their sign bit. *)
    let want =
      if classify fmt b = Zero then if sign_bit fmt b then -0.0 else 0.0
      else Rat.to_float (to_rat fmt b)
    in
    let got = to_float fmt b in
    if Int64.bits_of_float got <> Int64.bits_of_float want then
      Alcotest.failf "(%d,%d) pattern %Lx: to_float %h, Rat %h" fmt.ebits
        fmt.prec b got want
  in
  let every fmt =
    let n = ref 0 in
    for i = 0 to (1 lsl width fmt) - 1 do
      let b = Int64.of_int i in
      if is_finite fmt b then begin
        check fmt b;
        incr n
      end
    done;
    Alcotest.(check bool)
      (Printf.sprintf "(%d,%d) patterns checked" fmt.ebits fmt.prec)
      true (!n > 0)
  in
  List.iter every
    [
      make_fmt ~ebits:5 ~prec:8;
      binary16;
      bfloat16;
      make_fmt ~ebits:11 ~prec:4;
      make_fmt ~ebits:12 ~prec:4;
    ];
  let rng = Random.State.make [| 0xdec0; 32 |] in
  let seeded fmt count =
    let mask = Int64.pred (Int64.shift_left 1L (width fmt)) in
    for _ = 1 to count do
      let b = Int64.logand (Random.State.int64 rng Int64.max_int) mask in
      if is_finite fmt b then check fmt b
    done
  in
  seeded binary32 100_000;
  seeded (make_fmt ~ebits:8 ~prec:55) 20_000

let suite =
  [
    ("format parameters", `Quick, test_format_parameters);
    ("classification", `Quick, test_classify);
    ("binary16 decode known", `Quick, test_decode_known_binary16);
    ("native decode = Rat, exhaustive and seeded", `Quick,
     test_decode_native_eq_rat);
    ("binary32 encode = native cast", `Quick, test_encode_matches_native_binary32);
    ("round-to-odd semantics", `Quick, test_round_to_odd_semantics);
    ("directed modes", `Quick, test_rounding_modes_quarter);
    ("nearest ties", `Quick, test_ties);
    ("overflow per mode", `Quick, test_overflow_modes);
    ("underflow per mode", `Quick, test_underflow_modes);
    ("succ/pred navigation", `Quick, test_succ_pred);
    ("finite enumeration", `Quick, test_iter_finite_count);
    ("native narrow = Rat, mini target exhaustive", `Quick,
     test_narrow_exhaustive_mini);
    ("native round_float = Rat, seeded doubles", `Quick,
     test_round_float_seeded);
    ("native narrow = Rat, seeded patterns", `Quick, test_narrow_seeded);
    ("of_dyadic = of_rat, seeded", `Quick, test_of_dyadic_seeded);
  ]
  @ props
