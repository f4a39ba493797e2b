(* Tests for the pipeline building blocks: rounding intervals, range
   reduction / output compensation, reduced-interval inference and
   constraint merging. *)

let mini = Rlibm.Config.default_mini
let tout = Rlibm.Config.tout mini

(* ---------- rounding intervals ---------- *)

let test_interval_odd () =
  (* Pick an odd-patterned value and check the open-interval property. *)
  let y = Softfp.of_rat tout Softfp.RTO (Rat.of_ints 1 3) in
  Alcotest.(check bool) "odd" true (Softfp.frac_odd tout y);
  let iv = Rlibm.Intervals.of_round_to_odd tout y in
  Alcotest.(check bool) "not degenerate" false (Rlibm.Intervals.is_degenerate iv);
  (* every double in [lo,hi] rounds back to y under RTO *)
  let check v =
    Alcotest.(check int64)
      (Printf.sprintf "%h rounds to y" v)
      y
      (Softfp.of_rat tout Softfp.RTO (Rat.of_float v))
  in
  check iv.Rlibm.Intervals.lo;
  check iv.Rlibm.Intervals.hi;
  check (0.5 *. (iv.Rlibm.Intervals.lo +. iv.Rlibm.Intervals.hi));
  (* and the doubles just outside do not *)
  Alcotest.(check bool) "below is different" false
    (Int64.equal y
       (Softfp.of_rat tout Softfp.RTO
          (Rat.of_float (Float.pred iv.Rlibm.Intervals.lo))));
  Alcotest.(check bool) "above is different" false
    (Int64.equal y
       (Softfp.of_rat tout Softfp.RTO
          (Rat.of_float (Float.succ iv.Rlibm.Intervals.hi))))

let test_interval_even_degenerate () =
  (* 1.0 is exactly representable: its pattern is even and the interval is
     the single point. *)
  let y = Softfp.of_rat tout Softfp.RTO Rat.one in
  Alcotest.(check bool) "even" false (Softfp.frac_odd tout y);
  let iv = Rlibm.Intervals.of_round_to_odd tout y in
  Alcotest.(check bool) "degenerate" true (Rlibm.Intervals.is_degenerate iv);
  Alcotest.(check (float 0.0)) "at 1" 1.0 iv.Rlibm.Intervals.lo

let test_interval_rejects_nonfinite () =
  Alcotest.check_raises "inf"
    (Invalid_argument "Intervals.of_round_to_odd: not finite") (fun () ->
      ignore
        (Rlibm.Intervals.of_round_to_odd tout (Softfp.inf_bits tout ~neg:false)))

(* ---------- reductions ---------- *)

let family f =
  Rlibm.Reduction.make f ~out_fmt:tout ~pieces:2 ~table_bits:4

(* The reference reduction of [x]: the reduced input, and the output
   compensation of that element. *)
let reduce fam x =
  let s = Rlibm.Reduction.scratch () in
  s.Rlibm.Reduction.sf.Rlibm.Reduction.sx <- x;
  fam.Rlibm.Reduction.reduce_into s;
  (s.Rlibm.Reduction.sf.Rlibm.Reduction.sr, Rlibm.Reduction.compensate fam s)

let test_exp2_reduction_identity () =
  let fam = family Oracle.Exp2 in
  List.iter
    (fun x ->
      let r, oc = reduce fam x in
      (* reconstruct: oc(2^r) should equal 2^x up to double rounding *)
      let v = oc (Float.exp2 r) in
      Alcotest.(check bool)
        (Printf.sprintf "2^%h" x)
        true
        (Float.abs (v -. Float.exp2 x) <= 1e-10 *. Float.exp2 x);
      Alcotest.(check bool) "r in [0,1)" true (r >= 0.0 && r < 1.0))
    [ 0.0; 0.5; 3.25; -2.75; 7.9; -12.0625 ]

let test_exp2_exact_fraction () =
  let fam = family Oracle.Exp2 in
  (* for exp2 the reduced input is exactly x - floor x *)
  Alcotest.(check (float 0.0)) "frac" 0.625 (fst (reduce fam 3.625))

let test_exp_shortcuts () =
  let fam = family Oracle.Exp in
  Alcotest.(check bool) "overflow" true
    (fam.Rlibm.Reduction.shortcut 1.0e6 <> None);
  Alcotest.(check bool) "underflow" true
    (fam.Rlibm.Reduction.shortcut (-1.0e6) <> None);
  Alcotest.(check bool) "normal" true (fam.Rlibm.Reduction.shortcut 1.0 = None);
  (* shortcut results round correctly in every mode *)
  (match fam.Rlibm.Reduction.shortcut 1.0e6 with
  | Some v ->
      Alcotest.(check bool) "huge RNE=inf" true
        (Softfp.classify tout (Softfp.of_rat tout Softfp.RNE (Rat.of_float v))
        = Softfp.Inf);
      Alcotest.(check int64) "huge RTO=maxfin"
        (Softfp.max_finite_bits tout ~neg:false)
        (Softfp.of_rat tout Softfp.RTO (Rat.of_float v))
  | None -> Alcotest.fail "expected shortcut");
  match fam.Rlibm.Reduction.shortcut (-1.0e6) with
  | Some v ->
      Alcotest.(check int64) "tiny RNE=0" (Softfp.zero_bits tout)
        (Softfp.of_rat tout Softfp.RNE (Rat.of_float v));
      Alcotest.(check int64) "tiny RTU=minsub"
        (Softfp.min_subnormal_bits tout ~neg:false)
        (Softfp.of_rat tout Softfp.RTU (Rat.of_float v))
  | None -> Alcotest.fail "expected shortcut"

let test_exp_near_one_shortcut () =
  (* For tiny |x| the shortcut must return a double that rounds, in every
     mode and width, exactly like the true result 2^x (which lies strictly
     between 1 and its neighbour in the target). *)
  let fam = family Oracle.Exp2 in
  List.iter
    (fun x ->
      match fam.Rlibm.Reduction.shortcut x with
      | None -> Alcotest.failf "expected near-one shortcut for %h" x
      | Some v ->
          let r = Oracle.make_rounder Oracle.Exp2 (Rat.of_float x) in
          List.iter
            (fun mode ->
              List.iter
                (fun prec ->
                  let f = Softfp.make_fmt ~ebits:5 ~prec in
                  Alcotest.(check int64)
                    (Printf.sprintf "%h %s p%d" x (Softfp.mode_to_string mode)
                       prec)
                    (Oracle.round_with r ~fmt:f ~mode)
                    (Softfp.of_rat f mode (Rat.of_float v)))
                [ 2; 5; 8; 10 ])
            (Softfp.RTO :: Softfp.all_standard_modes))
    [ 1e-7; -1e-7; 4.2e-5; -3.3e-6; Float.ldexp 1.0 (-20) ];
  (* x = 0 must NOT shortcut: the exact value 1 belongs to the polynomial
     path's degenerate constraint *)
  Alcotest.(check bool) "0 not shortcut" true
    (fam.Rlibm.Reduction.shortcut 0.0 = None)

let test_log_reduction_identity () =
  List.iter
    (fun (f, reference) ->
      let fam = family f in
      List.iter
        (fun x ->
          let r, oc = reduce fam x in
          Alcotest.(check bool) "r in [0, 2^-J)" true (r >= 0.0 && r < 1.0 /. 16.0);
          (* oc(log_b(1+r)) ~ log_b(x) *)
          let v = oc (reference (1.0 +. r)) in
          Alcotest.(check bool)
            (Printf.sprintf "%s %h: %h vs %h" (Oracle.name f) x v (reference x))
            true
            (Float.abs (v -. reference x)
            <= 1e-9 *. Float.max 1.0 (Float.abs (reference x))))
        [ 1.0; 1.5; 2.0; 0.75; 1024.0; 3.1e-3; 7.25e5 ])
    [
      (Oracle.Log, log);
      (Oracle.Log2, Float.log2);
      (Oracle.Log10, log10);
    ]

let test_log_shortcuts () =
  let fam = family Oracle.Log in
  (match fam.Rlibm.Reduction.shortcut 0.0 with
  | Some v -> Alcotest.(check (float 0.0)) "log 0" Float.neg_infinity v
  | None -> Alcotest.fail "log 0 shortcut");
  (match fam.Rlibm.Reduction.shortcut (-1.0) with
  | Some v -> Alcotest.(check bool) "log neg" true (Float.is_nan v)
  | None -> Alcotest.fail "log neg shortcut");
  Alcotest.(check bool) "log pos" true (fam.Rlibm.Reduction.shortcut 2.0 = None)

(* ---------- reduced intervals ---------- *)

let test_reduced_interval_exponential () =
  (* Exponential OC is exact scaling: the reduced interval must map back
     exactly inside. *)
  let fam = family Oracle.Exp2 in
  let s = Rlibm.Reduction.scratch () in
  s.Rlibm.Reduction.sf.Rlibm.Reduction.sx <- 5.3;
  fam.Rlibm.Reduction.reduce_into s;
  let oc = Rlibm.Reduction.compensate fam s in
  let inv = Rlibm.Constraints.Scale s.Rlibm.Reduction.sn in
  let y =
    Oracle.correctly_round Oracle.Exp2 (Rat.of_float 5.3) ~fmt:tout
      ~mode:Softfp.RTO
  in
  let iv = Rlibm.Intervals.of_round_to_odd tout y in
  match Rlibm.Constraints.reduced_interval ~oc ~inv iv with
  | None -> Alcotest.fail "reduced interval must exist"
  | Some (lo, hi) ->
      Alcotest.(check bool) "nonempty" true (lo <= hi);
      List.iter
        (fun v ->
          let out = oc v in
          Alcotest.(check bool)
            (Printf.sprintf "oc %h inside" v)
            true
            (Rlibm.Intervals.contains iv out))
        [ lo; hi; 0.5 *. (lo +. hi) ]

let test_reduced_interval_log () =
  (* Log OC rounds (an addition): the fix-up loop must still deliver
     endpoints that map inside. *)
  let fam = family Oracle.Log2 in
  List.iter
    (fun x ->
      let s = Rlibm.Reduction.scratch () in
      s.Rlibm.Reduction.sf.Rlibm.Reduction.sx <- x;
      fam.Rlibm.Reduction.reduce_into s;
      let oc = Rlibm.Reduction.compensate fam s in
      let c = s.Rlibm.Reduction.sf.Rlibm.Reduction.sc in
      let inv = Rlibm.Constraints.Shift c in
      let y =
        Oracle.correctly_round Oracle.Log2 (Rat.of_float x) ~fmt:tout
          ~mode:Softfp.RTO
      in
      let iv = Rlibm.Intervals.of_round_to_odd tout y in
      match Rlibm.Constraints.reduced_interval ~oc ~inv iv with
      | None -> () (* possible for degenerate intervals; fine *)
      | Some (lo, hi) ->
          Alcotest.(check bool) "nonempty" true (lo <= hi);
          List.iter
            (fun v ->
              Alcotest.(check bool)
                (Printf.sprintf "log2 %h: oc %h inside" x v)
                true
                (Rlibm.Intervals.contains iv (oc v)))
            [ lo; hi ])
    [ 1.17; 3.0; 9.5; 1000.0; 0.0625; 0.7 ]

let test_reduced_interval_budget_per_direction () =
  (* Regression: the fix-up loops used to share one 256-step budget, so a
     boundary needing many lower nudges starved the upper fix-up and a
     recoverable constraint was misclassified as infeasible.  Build a
     synthetic compensation that maps the exact pull-back ~200 nudges
     outside on *both* sides: the lower loop needs 200 of its 256 steps,
     and the upper loop must still have a full budget of its own. *)
  let ulp = Float.succ 1.0 -. 1.0 in
  let iv = { Rlibm.Intervals.lo = 1.0; hi = 1.0 +. (1024.0 *. ulp) } in
  let mid = 1.0 +. (512.0 *. ulp) and shift = 200.0 *. ulp in
  let oc v =
    (* push the lower endpoint below the interval and the upper one
       above it, so both directions have repair work to do *)
    if v <= mid then v -. shift else v +. shift
  in
  (* The identity inverse: the pull-back starts at the endpoints. *)
  match
    Rlibm.Constraints.reduced_interval ~oc ~inv:(Rlibm.Constraints.Scale 0) iv
  with
  | None ->
      Alcotest.fail
        "feasible constraint misclassified: the upper fix-up was starved"
  | Some (lo, hi) ->
      Alcotest.(check bool) "nonempty" true (lo <= hi);
      Alcotest.(check (float 0.0)) "lo took 200 nudges" (1.0 +. shift) lo;
      Alcotest.(check (float 0.0)) "hi took 200 nudges"
        (1.0 +. (824.0 *. ulp)) hi;
      Alcotest.(check bool) "lo mapped inside" true
        (Rlibm.Intervals.contains iv (oc lo));
      Alcotest.(check bool) "hi mapped inside" true
        (Rlibm.Intervals.contains iv (oc hi))

(* The Rat route the native pull-back replaced: the exact rational
   inverse, rounded to a double in the requested direction. *)
let rat_pull inv ~up q =
  let q = Rat.of_float q in
  let exact =
    match inv with
    | Rlibm.Constraints.Scale n -> Rat.mul_pow2 q (-n)
    | Rlibm.Constraints.Shift c -> Rat.sub q (Rat.of_float c)
  in
  Rat.to_float_dir (if up then Rat.Up else Rat.Down) exact

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_pull what inv ~up q =
  let got = Rlibm.Constraints.pull inv ~up q and want = rat_pull inv ~up q in
  if not (same_float got want) then
    Alcotest.failf "%s: pull %s %s %h = %h, Rat route %h" what
      (match inv with
      | Rlibm.Constraints.Scale n -> Printf.sprintf "Scale %d" n
      | Rlibm.Constraints.Shift c -> Printf.sprintf "Shift %h" c)
      (if up then "up" else "down")
      q got want

(* Every covered input of [cfg]'s universe: the native pull-back of both
   rounding-interval endpoints equals the Rat route bit for bit (the
   nudge loop of [reduced_interval] is shared code, so equal pull-backs
   give equal reduced intervals).  Returns the number of inputs. *)
let pull_back_matches_rat func (cfg : Rlibm.Config.t) =
  let family =
    Rlibm.Reduction.make func ~out_fmt:(Rlibm.Config.tout cfg)
      ~pieces:cfg.Rlibm.Config.pieces ~table_bits:cfg.Rlibm.Config.table_bits
  in
  let inputs = Genlibm.inputs_exhaustive cfg.Rlibm.Config.tin in
  let oracle = Hashtbl.create 4096 in
  ignore (Rlibm.Constraints.ensure_oracle ~cfg ~family ~inputs ~oracle : int);
  let rivals =
    Rlibm.Constraints.rounding_intervals ~cfg ~family ~inputs ~oracle
  in
  let what = Oracle.name func in
  Array.iter
    (fun (ri : Rlibm.Constraints.rounding_interval) ->
      let s = Rlibm.Reduction.scratch () in
      s.Rlibm.Reduction.sf.Rlibm.Reduction.sx <-
        Softfp.to_float cfg.Rlibm.Config.tin ri.Rlibm.Constraints.ri_x;
      family.Rlibm.Reduction.reduce_into s;
      let inv = Rlibm.Constraints.inverse family s in
      check_pull what inv ~up:true ri.Rlibm.Constraints.ri_lo;
      check_pull what inv ~up:false ri.Rlibm.Constraints.ri_hi)
    rivals;
  Array.length rivals

let test_pull_back_mini () =
  List.iter
    (fun func ->
      let n = pull_back_matches_rat func (Rlibm.Config.mini_for func) in
      Alcotest.(check bool) (Oracle.name func ^ " covers inputs") true (n > 1000))
    Oracle.all

let test_pull_back_binary16 () =
  List.iter
    (fun func ->
      let cfg = { (Rlibm.Config.mini_for func) with tin = Softfp.binary16 } in
      let n = pull_back_matches_rat func cfg in
      Alcotest.(check bool) (Oracle.name func ^ " covers inputs") true (n > 10000))
    [ Oracle.Exp2; Oracle.Log2 ]

(* The cases the mini universe never reaches: subnormal and overflowing
   quotients, signed zeros, and differences that leave double range. *)
let test_pull_edges () =
  let qs =
    List.concat_map
      (fun q -> [ q; -.q; Float.succ q; Float.pred q ])
      [
        0.0; 4.9e-324; 2.2250738585072014e-308; 1.0; 1.5; 3.0;
        0x1.fffffffffffffp+1023; 0x1.123456789abcdp-1030; 0x1.8p-1070;
        1e-300; 1e300; 0.1;
      ]
    |> List.filter Float.is_finite
  in
  List.iter
    (fun q ->
      List.iter
        (fun n ->
          check_pull "edge" (Rlibm.Constraints.Scale n) ~up:true q;
          check_pull "edge" (Rlibm.Constraints.Scale n) ~up:false q)
        [ -2100; -1100; -1; 0; 1; 3; 52; 60; 1022; 1074; 1080; 2100 ];
      List.iter
        (fun c ->
          check_pull "edge" (Rlibm.Constraints.Shift c) ~up:true q;
          check_pull "edge" (Rlibm.Constraints.Shift c) ~up:false q)
        [ 0.0; -0.0; 1.0; -1.0; 0.1; 1e-300; 0x1.8p-1070; 1e300;
          -0x1.fffffffffffffp+1023; 0x1.fffffffffffffp+1023 ])
    qs

(* ---------- constraint building ---------- *)

let test_build_merges_and_covers () =
  let cfg = { mini with Rlibm.Config.pieces = 2 } in
  let fam =
    Rlibm.Reduction.make Oracle.Exp2 ~out_fmt:tout ~pieces:2
      ~table_bits:cfg.Rlibm.Config.table_bits
  in
  let inputs = Array.init 64 (fun i -> Softfp.of_ordinal cfg.Rlibm.Config.tin (i + 400)) in
  let built = Rlibm.Constraints.build ~cfg ~family:fam ~inputs in
  Alcotest.(check int) "two piece buckets" 2 (Array.length built.Rlibm.Constraints.points);
  let n_pts =
    Array.fold_left (fun acc a -> acc + Array.length a) 0 built.Rlibm.Constraints.points
  in
  let n_specials = List.length built.Rlibm.Constraints.immediate_specials in
  let n_xs =
    Array.fold_left
      (fun acc a ->
        Array.fold_left
          (fun acc p -> acc + List.length p.Rlibm.Constraints.xs)
          acc a)
      0 built.Rlibm.Constraints.points
  in
  Alcotest.(check bool) "every input accounted" true (n_xs + n_specials <= 64);
  Alcotest.(check bool) "some constraints" true (n_pts > 0);
  (* every constraint interval is nonempty and pieces are correct *)
  Array.iteri
    (fun pi pts ->
      Array.iter
        (fun p ->
          Alcotest.(check bool) "nonempty" true
            (p.Rlibm.Constraints.lo <= p.Rlibm.Constraints.hi);
          Alcotest.(check int) "piece" pi p.Rlibm.Constraints.piece)
        pts)
    built.Rlibm.Constraints.points

let test_mini_config_sanity () =
  Alcotest.(check int) "tout width" 15 (Softfp.width tout);
  Alcotest.(check int) "tout prec" 10 tout.Softfp.prec;
  List.iter
    (fun f ->
      let cfg = Rlibm.Config.mini_for f in
      Alcotest.(check bool) "pieces >= 1" true (cfg.Rlibm.Config.pieces >= 1))
    Oracle.all

(* ---------- polynomial stage pin ---------- *)

(* The mini universe's constraint set per function, built once. *)
let mini_built =
  let memo = Hashtbl.create 8 in
  fun func ->
    match Hashtbl.find_opt memo func with
    | Some b -> b
    | None ->
        let cfg = Rlibm.Config.mini_for func in
        let family =
          Rlibm.Reduction.make func ~out_fmt:(Rlibm.Config.tout cfg)
            ~pieces:cfg.Rlibm.Config.pieces
            ~table_bits:cfg.Rlibm.Config.table_bits
        in
        let b =
          Cache.with_persistence false (fun () ->
              Rlibm.Constraints.build ~cfg ~family
                ~inputs:(Genlibm.inputs_exhaustive cfg.Rlibm.Config.tin))
        in
        Hashtbl.replace memo func b;
        b

(* Generate.solve on the mini universe must keep returning exactly these
   artifacts.  The exact LP's arithmetic (gcd algorithm, sparse pivots,
   ratio test) may change only in ways that leave every simplex vertex,
   and so every coefficient bit, where it was; this pin catches any
   change that moves one.  The strings render sv_data with %h. *)
let pinned_solves =
  [
    ( Oracle.Exp2,
      [
        ( Polyeval.Horner,
          "data=[0x1p+0;0x1.62cfaea285726p-1;0x1.ee8b4c674c3a1p-3;0x1.a827bc6da8fe1p-5;0x1.c2dc71a8aeff4p-7] \
           degrees=4 rounds=1 specials=[]" );
        ( Polyeval.EstrinFma,
          "data=[0x1p+0;0x1.62cfaea285727p-1;0x1.ee8b4c674c39fp-3;0x1.a827bc6da8fe1p-5;0x1.c2dc71a8aeff2p-7] \
           degrees=4 rounds=1 specials=[]" );
      ] );
    ( Oracle.Log,
      (let log_pin =
         "data=[0x0p+0;0x1.fff39b83ab2dp-1;-0x1.f39b83ab2cf02p-2|0x1.38dd56a8e67f7p-12;0x1.f7b6c7ce9224fp-1;-0x1.1a9de6b831ee3p-2] \
          degrees=2,2 rounds=1,1 specials=[]"
       in
       [ (Polyeval.Horner, log_pin); (Polyeval.EstrinFma, log_pin) ]) );
  ]

let render_solved (sv : Rlibm.Generate.solved) =
  let join sep f a = String.concat sep (List.map f (Array.to_list a)) in
  Printf.sprintf "data=[%s] degrees=%s rounds=%s specials=[%s]"
    (join "|" (join ";" (Printf.sprintf "%h")) sv.Rlibm.Generate.sv_data)
    (join "," string_of_int sv.Rlibm.Generate.sv_degrees)
    (join "," string_of_int sv.Rlibm.Generate.sv_rounds)
    (String.concat ";"
       (List.map
          (fun (k, v) -> Printf.sprintf "%Lx:%h" k v)
          sv.Rlibm.Generate.sv_specials))

let test_solve_pinned () =
  Cache.with_persistence false (fun () ->
      List.iter
        (fun (func, cases) ->
          let cfg = Rlibm.Config.mini_for func in
          let built = mini_built func in
          List.iter
            (fun (scheme, want) ->
              let name =
                Oracle.name func ^ "/" ^ Polyeval.scheme_name scheme
              in
              match Rlibm.Generate.solve ~cfg ~scheme ~func ~built () with
              | Error e -> Alcotest.failf "%s: %s" name (Diag.Error.to_string e)
              | Ok sv -> Alcotest.(check string) name want (render_solved sv))
            cases)
        pinned_solves)

(* Every mini oracle table is decided by the native first tier: each
   oracle_range call reports one oracle.ziv event, and across the six
   functions no input falls back to the dyadic Ziv loop. *)
let test_oracle_tier_events () =
  Cache.with_persistence false (fun () ->
      Rlibm.Constraints.clear_memory_cache ();
      List.iter
        (fun func ->
          let cfg = Rlibm.Config.mini_for func in
          let family =
            Rlibm.Reduction.make func ~out_fmt:(Rlibm.Config.tout cfg)
              ~pieces:cfg.Rlibm.Config.pieces
              ~table_bits:cfg.Rlibm.Config.table_bits
          in
          let sink, drain = Diag.memory_sink ~min_level:Diag.Info () in
          let computed =
            Diag.with_sinks [ sink ] (fun () ->
                Rlibm.Constraints.ensure_oracle ~cfg ~family
                  ~inputs:(Genlibm.inputs_exhaustive cfg.Rlibm.Config.tin)
                  ~oracle:(Hashtbl.create 16))
          in
          let name = Oracle.name func in
          match List.filter (fun e -> e.Diag.ev_name = "oracle.ziv") (drain ()) with
          | [ ev ] ->
              let int k =
                match List.assoc_opt k ev.Diag.ev_fields with
                | Some (Diag.Int n) -> n
                | _ -> Alcotest.failf "%s: oracle.ziv lacks %s" name k
              in
              Alcotest.(check bool) (name ^ " func") true
                (List.assoc_opt "func" ev.Diag.ev_fields = Some (Diag.String name));
              Alcotest.(check int) (name ^ " inputs") computed (int "inputs");
              Alcotest.(check int) (name ^ " fallbacks") 0 (int "fallbacks");
              Alcotest.(check int) (name ^ " fast + analytic") computed
                (int "fast" + int "analytic")
          | evs ->
              Alcotest.failf "%s: %d oracle.ziv events, expected 1" name
                (List.length evs))
        Oracle.all)

(* ---------- round-1 LP: pinned verdicts and optimal delta ---------- *)

(* Round 1's LP over a piece, spelled out as primal rows over
   (coefficients, delta): monomials rounded to 64 bits as
   [Generate.first_round_lp] does, [p + delta <= hi] and
   [-p + delta <= -lo] per point, and [delta >= 0]. *)
type round1_system = {
  monos : Rat.t array array;
  lo : Rat.t array;
  hi : Rat.t array;
}

let round1_system ~degree (pts : Rlibm.Constraints.point array) =
  let round64 q =
    if Rat.is_zero q then q
    else
      let m, e, _ = Rat.approx q ~bits:64 in
      Rat.mul_pow2 (Rat.of_bigint (if Rat.sign q < 0 then Bigint.neg m else m)) e
  in
  {
    monos =
      Array.map
        (fun (p : Rlibm.Constraints.point) ->
          let x = Rat.of_float p.r in
          Array.init (degree + 1) (fun k -> round64 (Rat.pow x k)))
        pts;
    lo = Array.map (fun (p : Rlibm.Constraints.point) -> Rat.of_float p.lo) pts;
    hi = Array.map (fun (p : Rlibm.Constraints.point) -> Rat.of_float p.hi) pts;
  }

let lift a last = Array.init (Array.length a + 1) (fun k -> if k < Array.length a then a.(k) else last)

let round1_rows sys working =
  let d = Array.length sys.monos.(0) in
  ( lift (Array.make d Rat.zero) Rat.minus_one, Rat.zero )
  :: List.concat_map
       (fun i ->
         [
           (lift sys.monos.(i) Rat.one, sys.hi.(i));
           (lift (Array.map Rat.neg sys.monos.(i)) Rat.one, Rat.neg sys.lo.(i));
         ])
       working
  |> Array.of_list

let max_delta sys working =
  let d = Array.length sys.monos.(0) in
  Lp.maximize ~obj:(lift (Array.make d Rat.zero) Rat.one)
    ~rows:(round1_rows sys working)

let slack sys coeffs i =
  let v = ref Rat.zero in
  Array.iteri (fun k m -> v := Rat.add !v (Rat.mul coeffs.(k) m)) sys.monos.(i);
  Rat.min (Rat.sub sys.hi.(i) !v) (Rat.sub !v sys.lo.(i))

(* The optimal delta of the full system by cutting planes over cold
   [Lp.maximize] solves: starting from [working], add the points whose
   exact slack falls below the current delta (screened in doubles) until
   none does.  The optimum is unique, so the start set only changes how
   many solves it takes. *)
let optimal_delta sys working =
  let n = Array.length sys.monos in
  let monos_f = Array.map (Array.map Rat.to_float) sys.monos in
  let lo_f = Array.map Rat.to_float sys.lo and hi_f = Array.map Rat.to_float sys.hi in
  let in_w = Array.make n false in
  let rec loop working =
    List.iter (fun i -> in_w.(i) <- true) working;
    match max_delta sys working with
    | Lp.Infeasible -> None
    | Lp.Unbounded -> Alcotest.fail "delta is bounded"
    | Lp.Optimal (x, delta) -> (
        let xf = Array.map Rat.to_float x and df = Rat.to_float delta in
        let low = ref [] in
        for i = 0 to n - 1 do
          if not in_w.(i) then begin
            let v = ref 0.0 and mag = ref 0.0 in
            Array.iteri
              (fun k m ->
                v := !v +. (xf.(k) *. m);
                mag := !mag +. Float.abs (xf.(k) *. m))
              monos_f.(i);
            let s = Float.min (hi_f.(i) -. !v) (!v -. lo_f.(i)) in
            if s < df +. (1e-10 *. (!mag +. Float.abs lo_f.(i) +. Float.abs hi_f.(i)))
            then begin
              let s = slack sys x i in
              if Rat.compare s delta < 0 then low := (s, i) :: !low
            end
          end
        done;
        match List.sort (fun (a, _) (b, _) -> Rat.compare a b) !low with
        | [] -> Some delta
        | low -> loop (List.map snd (List.filteri (fun k _ -> k < 16) low) @ working))
  in
  loop working

let round1_pins () =
  In_channel.with_open_text (Test_codegen.golden_path "round1_lp.golden")
    In_channel.input_lines
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map (fun l ->
         match String.split_on_char ' ' l with
         | [ f; piece; degree; verdict; delta ] ->
             ( Option.get (Oracle.of_name f),
               int_of_string piece,
               int_of_string degree,
               verdict,
               delta )
         | _ -> Alcotest.failf "bad pin line %S" l)

(* Round 1's verdict and optimal delta at every pinned (function, piece,
   degree), recorded with the previous solver (a two-phase primal
   simplex), must come out exactly: [Generate.first_round_lp] gives the
   verdict, and its working set seeds the cutting-plane delta. *)
let test_round1_pinned () =
  List.iter
    (fun (func, piece, degree, verdict, delta) ->
      let name = Printf.sprintf "%s piece %d degree %d" (Oracle.name func) piece degree in
      let pts = (mini_built func).Rlibm.Constraints.points.(piece) in
      match Rlibm.Generate.first_round_lp ~degree pts with
      | Lp.Unsat -> Alcotest.(check string) name verdict "unsat"
      | Lp.Sat (_, working) ->
          Alcotest.(check string) name verdict "sat";
          let got = optimal_delta (round1_system ~degree pts) working in
          Alcotest.(check string) (name ^ " delta") delta
            (match got with Some q -> Rat.to_string q | None -> "-"))
    (round1_pins ())

(* Column generation's answer on a recorded system is a cold solve's:
   every working row holds exactly at the returned coefficients, and the
   smallest working slack equals the optimal delta of a cold dual solve
   of the final working set. *)
let test_column_generation_vs_cold () =
  List.iter
    (fun (func, piece, degree, _, _) ->
      let name = Printf.sprintf "%s piece %d degree %d" (Oracle.name func) piece degree in
      let pts = (mini_built func).Rlibm.Constraints.points.(piece) in
      match Rlibm.Generate.first_round_lp ~degree pts with
      | Lp.Unsat -> ()
      | Lp.Sat (coeffs, working) -> (
          let sys = round1_system ~degree pts in
          let slacks = List.map (slack sys coeffs) working in
          Alcotest.(check bool) (name ^ ": working rows hold") true
            (List.for_all (fun s -> Rat.sign s >= 0) slacks);
          match max_delta sys working with
          | Lp.Optimal (_, delta) ->
              Alcotest.(check string) (name ^ ": delta = cold delta")
                (Rat.to_string delta)
                (Rat.to_string (List.fold_left Rat.min (List.hd slacks) slacks))
          | _ -> Alcotest.failf "%s: cold solve of the working set failed" name))
    (round1_pins ())

let suite =
  [
    ("odd rounding interval", `Quick, test_interval_odd);
    ("even degenerate interval", `Quick, test_interval_even_degenerate);
    ("interval rejects non-finite", `Quick, test_interval_rejects_nonfinite);
    ("exp2 reduction identity", `Quick, test_exp2_reduction_identity);
    ("exp2 exact fraction", `Quick, test_exp2_exact_fraction);
    ("exp shortcuts", `Quick, test_exp_shortcuts);
    ("exp near-one shortcut", `Quick, test_exp_near_one_shortcut);
    ("log reduction identity", `Quick, test_log_reduction_identity);
    ("log shortcuts", `Quick, test_log_shortcuts);
    ("reduced interval exponential", `Quick, test_reduced_interval_exponential);
    ("reduced interval log (fixup)", `Quick, test_reduced_interval_log);
    ( "reduced interval per-direction budget",
      `Quick,
      test_reduced_interval_budget_per_direction );
    ("pull-back = Rat route, every mini input x 6", `Quick,
      test_pull_back_mini);
    ("pull-back = Rat route, every binary16 input (exp2, log2)", `Slow,
      test_pull_back_binary16);
    ("pull-back = Rat route, edge cases", `Quick, test_pull_edges);
    ("constraint building", `Quick, test_build_merges_and_covers);
    ("mini config", `Quick, test_mini_config_sanity);
    ("Generate.solve pinned (exp2, log)", `Quick, test_solve_pinned);
    ("round-1 LP verdicts and delta pinned (mini x 6)", `Quick,
      test_round1_pinned);
    ("column generation = cold dual solve of its working set", `Quick,
      test_column_generation_vs_cold);
    ("oracle.ziv: no fallback on any mini table", `Quick, test_oracle_tier_events);
  ]
