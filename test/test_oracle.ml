(* Tests for the correctly rounded oracle (the MPFR substitute). *)

let fmt16 = Softfp.binary16

let test_exact_values () =
  let check name f x expect =
    match Oracle.exact_value f (Rat.of_string x) with
    | Some y -> Alcotest.(check string) name expect (Rat.to_string y)
    | None -> Alcotest.failf "%s: expected exact value" name
  in
  check "exp 0" Oracle.Exp "0" "1";
  check "exp2 10" Oracle.Exp2 "10" "1024";
  check "exp2 -3" Oracle.Exp2 "-3" "1/8";
  check "exp10 3" Oracle.Exp10 "3" "1000";
  check "log 1" Oracle.Log "1" "0";
  check "log2 1024" Oracle.Log2 "1024" "10";
  check "log2 1/8" Oracle.Log2 "1/8" "-3";
  check "log10 1/100" Oracle.Log10 "1/100" "-2";
  let none name f x =
    Alcotest.(check bool) name true (Oracle.exact_value f (Rat.of_string x) = None)
  in
  none "exp 1" Oracle.Exp "1";
  none "exp2 1/2" Oracle.Exp2 "1/2";
  none "log 2" Oracle.Log "2";
  none "log2 3" Oracle.Log2 "3";
  none "log10 2" Oracle.Log10 "2"

let test_constants () =
  (* ln2 and ln10 enclosures must bracket the known doubles tightly. *)
  let check name iv expect =
    let lo, hi = Ival.to_rats iv in
    Alcotest.(check bool) (name ^ " brackets") true
      (Rat.compare lo (Rat.of_float expect) <= 0
      && Rat.compare (Rat.of_float expect) hi >= 0
      ||
      (* the double is one side of the bracket *)
      Rat.to_float lo = expect || Rat.to_float hi = expect);
    Alcotest.(check bool) (name ^ " tight") true
      (Rat.compare (Rat.sub hi lo) (Rat.mul_pow2 Rat.one (-90)) < 0)
  in
  check "ln2" (Oracle.ln2 ~prec:100) 0.6931471805599453;
  check "ln10" (Oracle.ln10 ~prec:100) 2.302585092994046

let test_enclosure_brackets_native () =
  (* The enclosure must contain the value glibc computes, to within
     glibc's own error (2 ulp). *)
  let cases =
    [ (Oracle.Exp, 1.0, exp 1.0); (Oracle.Exp, -7.25, exp (-7.25));
      (Oracle.Exp2, 0.3, Float.exp2 0.3); (Oracle.Exp10, 2.5, 316.2277660168379);
      (Oracle.Log, 7.5, log 7.5); (Oracle.Log2, 7.5, Float.log2 7.5);
      (Oracle.Log10, 7.5, log10 7.5) ]
  in
  List.iter
    (fun (f, x, native) ->
      let iv = Oracle.enclosure f (Rat.of_float x) ~prec:80 in
      let lo, hi = Ival.to_rats iv in
      let slack = Rat.of_float (Float.abs native *. 1e-13) in
      Alcotest.(check bool)
        (Printf.sprintf "%s %h" (Oracle.name f) x)
        true
        (Rat.compare (Rat.sub lo slack) (Rat.of_float native) <= 0
        && Rat.compare (Rat.of_float native) (Rat.add hi slack) <= 0))
    cases

let test_enclosure_widths_shrink () =
  let x = Rat.of_ints 7 3 in
  let w prec =
    let iv = Oracle.enclosure Oracle.Exp x ~prec in
    let lo, hi = Ival.to_rats iv in
    Rat.sub hi lo
  in
  let w80 = w 80 and w160 = w 160 in
  Alcotest.(check bool) "narrower at higher prec" true
    (Rat.compare w160 w80 < 0);
  Alcotest.(check bool) "meets target" true
    (Rat.compare w160 (Rat.mul_pow2 Rat.one (-150)) < 0)

let test_correctly_round_all_modes () =
  (* Round exp(1/3) into binary16 under every mode; check bracketing and
     mode ordering. *)
  let x = Rat.of_ints 1 3 in
  let get mode = Oracle.correctly_round Oracle.Exp x ~fmt:fmt16 ~mode in
  let ord mode = Softfp.ordinal fmt16 (get mode) in
  Alcotest.(check bool) "RTD <= RNE" true (ord Softfp.RTD <= ord Softfp.RNE);
  Alcotest.(check bool) "RNE <= RTU" true (ord Softfp.RNE <= ord Softfp.RTU);
  Alcotest.(check bool) "RTZ = RTD (positive)" true
    (ord Softfp.RTZ = ord Softfp.RTD);
  Alcotest.(check bool) "RTU - RTD <= 1" true (ord Softfp.RTU - ord Softfp.RTD <= 1);
  (* RTO result is odd unless exact *)
  Alcotest.(check bool) "RTO odd" true (Softfp.frac_odd fmt16 (get Softfp.RTO))

let test_correctly_round_exact () =
  let b = Oracle.correctly_round Oracle.Exp2 (Rat.of_int 3) ~fmt:fmt16 ~mode:Softfp.RTO in
  Alcotest.(check (float 0.0)) "2^3" 8.0 (Softfp.to_float fmt16 b);
  let b = Oracle.correctly_round Oracle.Log2 (Rat.of_int 1024) ~fmt:fmt16 ~mode:Softfp.RNE in
  Alcotest.(check (float 0.0)) "log2 1024" 10.0 (Softfp.to_float fmt16 b)

let test_overflow_underflow_shortcuts () =
  let huge = Rat.of_float 3.0e38 and fmt = Softfp.fp34 in
  let cls m = Softfp.classify fmt (Oracle.correctly_round Oracle.Exp huge ~fmt ~mode:m) in
  Alcotest.(check bool) "exp(huge) RNE inf" true (cls Softfp.RNE = Softfp.Inf);
  Alcotest.(check int64) "exp(huge) RTO = maxfin"
    (Softfp.max_finite_bits fmt ~neg:false)
    (Oracle.correctly_round Oracle.Exp huge ~fmt ~mode:Softfp.RTO);
  Alcotest.(check int64) "exp(-huge) RTO = minsub"
    (Softfp.min_subnormal_bits fmt ~neg:false)
    (Oracle.correctly_round Oracle.Exp (Rat.neg huge) ~fmt ~mode:Softfp.RTO);
  Alcotest.(check int64) "exp(-huge) RNE = 0" (Softfp.zero_bits fmt)
    (Oracle.correctly_round Oracle.Exp (Rat.neg huge) ~fmt ~mode:Softfp.RNE);
  Alcotest.(check int64) "exp(-huge) RTU = minsub"
    (Softfp.min_subnormal_bits fmt ~neg:false)
    (Oracle.correctly_round Oracle.Exp (Rat.neg huge) ~fmt ~mode:Softfp.RTU)

let test_domain () =
  Alcotest.(check bool) "log domain" false
    (Oracle.domain_ok Oracle.Log (Rat.of_int (-1)));
  Alcotest.(check bool) "log zero" false (Oracle.domain_ok Oracle.Log Rat.zero);
  Alcotest.(check bool) "exp domain" true
    (Oracle.domain_ok Oracle.Exp (Rat.of_int (-1)));
  Alcotest.check_raises "enclosure domain"
    (Invalid_argument "Oracle.enclosure: domain") (fun () ->
      ignore (Oracle.enclosure Oracle.Log (Rat.of_int (-1)) ~prec:60))

let test_float64_against_native () =
  (* The float64 oracle and glibc should agree to <= 2 ulp (glibc's
     documented error bounds); count exact agreement as the common case. *)
  let ulp_diff a bb =
    Int64.abs (Int64.sub (Int64.bits_of_float a) (Int64.bits_of_float bb))
  in
  let st = Random.State.make [| 2023 |] in
  let checks =
    [ (Oracle.Exp, exp, fun () -> Random.State.float st 100.0 -. 50.0);
      (Oracle.Log, log, fun () -> Random.State.float st 1000.0 +. 1e-9);
      (Oracle.Log2, Float.log2, fun () -> Random.State.float st 1000.0 +. 1e-9);
      (Oracle.Log10, log10, fun () -> Random.State.float st 1000.0 +. 1e-9) ]
  in
  List.iter
    (fun (f, native, gen) ->
      for _ = 1 to 60 do
        let x = gen () in
        let o = Oracle.float64 f x and nv = native x in
        Alcotest.(check bool)
          (Printf.sprintf "%s %h: %h vs %h" (Oracle.name f) x o nv)
          true
          (Int64.compare (ulp_diff o nv) 2L <= 0)
      done)
    checks

let test_rounder_consistency () =
  (* A memoizing rounder must agree with fresh correctly_round calls for
     every format and mode. *)
  let x = Rat.of_ints 355 113 in
  let r = Oracle.make_rounder Oracle.Log2 x in
  List.iter
    (fun fmt ->
      List.iter
        (fun mode ->
          Alcotest.(check int64)
            (Softfp.mode_to_string mode)
            (Oracle.correctly_round Oracle.Log2 x ~fmt ~mode)
            (Oracle.round_with r ~fmt ~mode))
        (Softfp.RTO :: Softfp.all_standard_modes))
    [ Softfp.binary16; Softfp.bfloat16; Softfp.binary32; Softfp.fp34 ];
  Alcotest.check_raises "domain" (Invalid_argument "Oracle.make_rounder: domain")
    (fun () -> ignore (Oracle.make_rounder Oracle.Log (Rat.of_int (-3))))

let test_name_round_trip () =
  List.iter
    (fun f ->
      Alcotest.(check bool) (Oracle.name f) true
        (Oracle.of_name (Oracle.name f) = Some f))
    Oracle.all;
  Alcotest.(check bool) "ln alias" true (Oracle.of_name "ln" = Some Oracle.Log);
  Alcotest.(check bool) "unknown" true (Oracle.of_name "sin" = None)

(* The neighbour of [b] toward [next] whose value differs from [b]'s:
   -0 and +0 are neighbouring patterns of one value. *)
let rec distinct_neighbour next b =
  let s = next fmt16 b in
  if
    Softfp.is_finite fmt16 s
    && Rat.equal (Softfp.to_rat fmt16 s) (Softfp.to_rat fmt16 b)
  then distinct_neighbour next s
  else s

(* Ziv loop correctness: the rounded result of correctly_round decodes
   to a value within one ulp of the enclosure, expressed format-side:
   the enclosure intersects the open interval between b's neighbours
   of other values.  Non-finite neighbours satisfy their side
   vacuously. *)
let brackets_enclosure f q =
  (not (Oracle.domain_ok f q))
  ||
  let b = Oracle.correctly_round f q ~fmt:fmt16 ~mode:Softfp.RNE in
  (not (Softfp.is_finite fmt16 b))
  ||
  let iv = Oracle.enclosure f q ~prec:96 in
  let lo, hi = Ival.to_rats iv in
  let above_ok =
    let s = distinct_neighbour Softfp.succ b in
    (not (Softfp.is_finite fmt16 s))
    || Rat.compare lo (Softfp.to_rat fmt16 s) < 0
  in
  let below_ok =
    let p = distinct_neighbour Softfp.pred b in
    (not (Softfp.is_finite fmt16 p))
    || Rat.compare (Softfp.to_rat fmt16 p) hi < 0
  in
  above_ok && below_ok

(* log_b 1 = +0, whose pattern neighbour below is -0. *)
let test_brackets_at_zero () =
  List.iter
    (fun f ->
      Alcotest.(check bool) (Oracle.name f) true (brackets_enclosure f Rat.one))
    [ Oracle.Log; Oracle.Log2; Oracle.Log10 ]

let prop_correctly_round_brackets =
  let gen =
    QCheck2.Gen.(
      let* fidx = int_bound 5 in
      let* n = int_range 1 40_000 in
      let* d = int_range 1 40_000 in
      let* neg = bool in
      let f = List.nth Oracle.all fidx in
      let q = Rat.of_ints (if neg then -n else n) d in
      (* keep the exponentials away from deep overflow/underflow so the
         direct enclosure (rather than the range shortcut) is exercised,
         and the logarithms positive *)
      let q =
        if not (Funcspec.is_exp_family f) then Rat.abs q
        else if Rat.compare (Rat.abs q) (Rat.of_int 30) > 0 then
          Rat.div q (Rat.of_int 40_000)
        else q
      in
      return (f, q))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:120 ~name:"correctly_round brackets enclosure"
       ~print:(fun (f, q) -> Oracle.name f ^ " " ^ Rat.to_string q)
       gen
       (fun (f, q) ->
         QCheck2.assume (Rat.sign q <> 0 || Oracle.domain_ok f q);
         brackets_enclosure f q))

(* ---------- the native first tier ---------- *)

(* Outcome of one input for the containment sweep. *)
type containment = Skipped | Contained | No_fast | Escapes

(* Does the first tier's enclosure of [f x] contain the dyadic Ziv
   loop's first-level enclosure (prec 80)?  Containment also implies
   that a fast-decided result equals the dyadic one.  Exact values and
   range-shortcut inputs never reach either enclosure and are skipped. *)
let containment f fmt x =
  let q = Softfp.to_rat fmt x in
  if (not (Oracle.domain_ok f q)) || Oracle.exact_value f q <> None then Skipped
  else
    let tout = Softfp.with_extra_prec fmt 2 in
    match Oracle.decide (Oracle.make_rounder f q) ~fmt:tout ~mode:Softfp.RTO with
    | _, (Oracle.Range_shortcut | Oracle.Exact) -> Skipped
    | _, (Oracle.Fast | Oracle.Ziv _) -> (
        match Oracle.fast_enclosure f q with
        | None -> No_fast
        | Some (flo, fhi) ->
            let dlo, dhi = Ival.to_rats (Oracle.enclosure f q ~prec:80) in
            if Rat.compare flo dlo <= 0 && Rat.compare dhi fhi <= 0 then
              Contained
            else Escapes)

let sweep f fmt xs =
  let out = Parallel.map_array (containment f fmt) xs in
  let count c = Array.fold_left (fun n o -> if o = c then n + 1 else n) 0 out in
  (count Contained, count No_fast, count Escapes)

let test_fast_contains_dyadic () =
  (* Every non-exact, non-shortcut mini input of every function: the
     first tier applies (none is left to the Ziv loop alone) and its
     enclosure contains the dyadic one. *)
  let mini = Softfp.make_fmt ~ebits:5 ~prec:8 in
  let all_mini =
    Array.init (1 lsl Softfp.width mini) Int64.of_int
    |> Array.to_list
    |> List.filter (Softfp.is_finite mini)
    |> Array.of_list
  in
  let st = Random.State.make [| 18 |] in
  let seeded fmt n =
    Array.init n (fun _ ->
        let rec draw () =
          let b = Random.State.int64 st (Int64.shift_left 1L (Softfp.width fmt)) in
          if Softfp.is_finite fmt b then b else draw ()
        in
        draw ())
  in
  let b16 = seeded Softfp.binary16 300 and b32 = seeded Softfp.binary32 300 in
  List.iter
    (fun f ->
      let name = Oracle.name f in
      let ok, no_fast, escapes = sweep f mini all_mini in
      Alcotest.(check int) (name ^ " mini: escapes") 0 escapes;
      Alcotest.(check int) (name ^ " mini: without a fast enclosure") 0 no_fast;
      Alcotest.(check bool) (name ^ " mini: inputs checked") true (ok > 3000);
      List.iter
        (fun (fname, fmt, xs) ->
          let ok, _, escapes = sweep f fmt xs in
          Alcotest.(check int) (Printf.sprintf "%s %s: escapes" name fname) 0
            escapes;
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: inputs checked" name fname)
            true (ok > 50))
        [ ("binary16", Softfp.binary16, b16); ("binary32", Softfp.binary32, b32) ])
    Oracle.all

let test_fast_constants () =
  (* Each literal [floor, ceiling] pair contains the constant's dyadic
     enclosure at prec 200 and is one ulp wide. *)
  let prec = 200 in
  let one = Ival.of_int 1 in
  let ulp = Rat.mul_pow2 Rat.one (-Fixed.frac_bits) in
  List.iter
    (fun (name, fx, iv) ->
      let flo, fhi = Fixed.to_rats fx ~scale:0 in
      let lo, hi = Ival.to_rats iv in
      Alcotest.(check bool) (name ^ " contains") true
        (Rat.compare flo lo <= 0 && Rat.compare hi fhi <= 0);
      Alcotest.(check bool) (name ^ " one ulp") true
        (Rat.equal (Rat.sub fhi flo) ulp))
    [
      ("ln2", Funcspec.fixed_ln2, Funcspec.ln2 ~prec);
      ("ln10", Funcspec.fixed_ln10, Funcspec.ln10 ~prec);
      ("log2e", Funcspec.fixed_log2e, Ival.div ~prec one (Funcspec.ln2 ~prec));
      ("log10e", Funcspec.fixed_log10e, Ival.div ~prec one (Funcspec.ln10 ~prec));
    ]

let test_non_dyadic_falls_back () =
  (* 1/3 is no dyadic: the first tier does not apply, the Ziv loop
     decides, and the result is the one a prec-200 enclosure rounds
     to. *)
  let x = Rat.of_ints 1 3 in
  List.iter
    (fun f ->
      let name = Oracle.name f in
      Alcotest.(check bool) (name ^ " no fast enclosure") true
        (Oracle.fast_enclosure f x = None);
      let b, tier =
        Oracle.decide (Oracle.make_rounder f x) ~fmt:fmt16 ~mode:Softfp.RNE
      in
      Alcotest.(check string) (name ^ " tier") "ziv80" (Oracle.tier_name tier);
      let lo, hi = Ival.to_rats (Oracle.enclosure f x ~prec:200) in
      Alcotest.(check int64) (name ^ " lo") (Softfp.of_rat fmt16 Softfp.RNE lo) b;
      Alcotest.(check int64) (name ^ " hi") (Softfp.of_rat fmt16 Softfp.RNE hi) b)
    Oracle.all;
  (* A dyadic input goes through the first tier. *)
  let _, tier =
    Oracle.decide (Oracle.make_rounder Oracle.Log (Rat.of_ints 3 2)) ~fmt:fmt16
      ~mode:Softfp.RNE
  in
  Alcotest.(check string) "log 3/2 tier" "fast" (Oracle.tier_name tier)

(* The range shortcut decides 10^x at the largest finite mini input
   from its magnitude alone, without materializing the exact 10^65280:
   a rounder computes its exact value only on first need.  Measured at
   202 bytes; the bound leaves room for boxing noise and sits far below
   the ~17 MB the eager exact value allocates. *)
let test_exp10_shortcut_allocation () =
  let cfg = Rlibm.Config.mini_for Oracle.Exp10 in
  let tin = cfg.Rlibm.Config.tin in
  let x = Softfp.to_rat tin (Softfp.max_finite_bits tin ~neg:false) in
  let before = Gc.allocated_bytes () in
  let _, tier =
    Oracle.decide (Oracle.make_rounder Oracle.Exp10 x)
      ~fmt:(Rlibm.Config.tout cfg) ~mode:Softfp.RTO
  in
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check string) "tier" "range" (Oracle.tier_name tier);
  if allocated > 4096.0 then
    Alcotest.failf "decide allocated %.0f bytes (bound 4096)" allocated

let suite =
  [
    ("exact values", `Quick, test_exact_values);
    ("constants ln2/ln10", `Quick, test_constants);
    ("enclosures bracket glibc", `Quick, test_enclosure_brackets_native);
    ("enclosure width scales", `Quick, test_enclosure_widths_shrink);
    ("all rounding modes", `Quick, test_correctly_round_all_modes);
    ("exact correctly rounded", `Quick, test_correctly_round_exact);
    ("overflow/underflow shortcuts", `Quick, test_overflow_underflow_shortcuts);
    ("domain handling", `Quick, test_domain);
    ("float64 vs glibc", `Slow, test_float64_against_native);
    ("rounder consistency", `Quick, test_rounder_consistency);
    ("names", `Quick, test_name_round_trip);
    ("fast tier contains dyadic (mini x 6, binary16/32)", `Quick,
      test_fast_contains_dyadic);
    ("fast tier constants vs prec 200", `Quick, test_fast_constants);
    ("non-dyadic input falls back", `Quick, test_non_dyadic_falls_back);
    ("exp10 range shortcut skips the exact value", `Quick,
      test_exp10_shortcut_allocation);
    ("correctly_round brackets log_b 1 = +0", `Quick, test_brackets_at_zero);
    prop_correctly_round_brackets;
  ]
