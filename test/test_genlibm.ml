(* Integration tests: generate correctly rounded functions end-to-end on a
   small universe and verify them exhaustively.  The heavyweight
   all-function × all-scheme sweep lives in the benchmark harness; here we
   run one exponential and one logarithm with two schemes each, plus
   targeted behaviour tests. *)

(* An even smaller universe than Config.mini keeps the integration tests
   fast: 11-bit inputs, 13-bit round-to-odd target, 1984 finite inputs. *)
let tiny_cfg = Test_tmp.tiny_cfg

let tiny = tiny_cfg.Rlibm.Config.tin
let inputs = lazy (Genlibm.inputs_exhaustive tiny)

(* Generation is expensive; several tests share the same function, so
   they read the test run's memo. *)
let generate_ok func scheme =
  match Test_tmp.generate ~cfg:tiny_cfg ~scheme func with
  | Ok g -> g
  | Error msg -> Alcotest.failf "generation failed: %s" (Diag.Error.to_string msg)

(* The pipeline's oracle table for [func], which verification reads. *)
let oracle_of func =
  Cache.with_persistence false (fun () ->
      Result.get_ok (Pipeline.oracle_stage ~cfg:tiny_cfg func))

let check_verified func scheme =
  let g = generate_ok func scheme in
  let rep =
    Genlibm.verify ~oracle:(oracle_of func) g ~inputs:(Lazy.force inputs)
  in
  Alcotest.(check int)
    (Printf.sprintf "%s/%s wrong34" (Oracle.name func)
       (Polyeval.scheme_name scheme))
    0 rep.Genlibm.wrong34;
  Alcotest.(check int)
    (Printf.sprintf "%s/%s wrong narrow" (Oracle.name func)
       (Polyeval.scheme_name scheme))
    0 rep.Genlibm.wrong_narrow;
  Alcotest.(check bool) "checked everything" true
    (rep.Genlibm.checked = Softfp.count_finite tiny);
  g

let test_exp2_horner () = ignore (check_verified Oracle.Exp2 Polyeval.Horner)
let test_exp2_estrin_fma () = ignore (check_verified Oracle.Exp2 Polyeval.EstrinFma)
let test_log2_horner () = ignore (check_verified Oracle.Log2 Polyeval.Horner)
let test_log2_estrin () = ignore (check_verified Oracle.Log2 Polyeval.Estrin)
let test_exp_estrin_fma () = ignore (check_verified Oracle.Exp Polyeval.EstrinFma)
let test_log10_estrin_fma () = ignore (check_verified Oracle.Log10 Polyeval.EstrinFma)

(* [verify] must check the served kernel, not a second evaluator: a
   copy of the function whose kernel constants differ in one entry —
   while the reference path's own tables stay as they are — must fail
   verification. *)
let test_verify_sees_kernel () =
  let xs = Lazy.force inputs in
  let wrong g =
    let func = g.Rlibm.Generate.family.Rlibm.Reduction.func in
    let rep = Genlibm.verify ~oracle:(oracle_of func) g ~inputs:xs in
    rep.Genlibm.wrong34 + rep.Genlibm.wrong_narrow
  in
  let with_kernel (g : Rlibm.Generate.generated) kernel =
    { g with Rlibm.Generate.family = { g.Rlibm.Generate.family with Rlibm.Reduction.kernel } }
  in
  (* exp2: the power-of-two factor of a polynomial-path input in
     [1/4, 1), whose result is far from overflow and underflow *)
  let g = generate_ok Oracle.Exp2 Polyeval.Horner in
  Alcotest.(check int) "exp2 original" 0 (wrong g);
  let fam = g.Rlibm.Generate.family in
  let x =
    List.find
      (fun x ->
        Softfp.is_finite tiny x
        && (not (Hashtbl.mem g.Rlibm.Generate.specials x))
        &&
        let xf = Softfp.to_float tiny x in
        xf >= 0.25 && xf < 1.0)
      (Array.to_list xs)
  in
  let s = Rlibm.Reduction.scratch () in
  s.Rlibm.Reduction.sf.Rlibm.Reduction.sx <- Softfp.to_float tiny x;
  fam.Rlibm.Reduction.reduce_into s;
  (match fam.Rlibm.Reduction.kernel with
  | Rlibm.Reduction.Exp_kernel ek ->
      let pow_lo = Array.copy ek.Rlibm.Reduction.ek_pow_lo in
      let i = s.Rlibm.Reduction.sn - ek.Rlibm.Reduction.ek_n_lo in
      pow_lo.(i) <- 2.0 *. pow_lo.(i);
      let tampered =
        with_kernel g (Rlibm.Reduction.Exp_kernel { ek with ek_pow_lo = pow_lo })
      in
      Alcotest.(check bool) "exp2 tampered ek_pow_lo is caught" true
        (wrong tampered > 0)
  | Rlibm.Reduction.Log_kernel _ -> Alcotest.fail "exp2 has an exp kernel");
  (* log2: one entry of the table T[j] *)
  let g = generate_ok Oracle.Log2 Polyeval.Horner in
  Alcotest.(check int) "log2 original" 0 (wrong g);
  match g.Rlibm.Generate.family.Rlibm.Reduction.kernel with
  | Rlibm.Reduction.Log_kernel lk ->
      let tbl = Array.copy lk.Rlibm.Reduction.lk_table in
      tbl.(1) <- tbl.(1) +. 1.0;
      let tampered =
        with_kernel g (Rlibm.Reduction.Log_kernel { lk with lk_table = tbl })
      in
      Alcotest.(check bool) "log2 tampered lk_table is caught" true
        (wrong tampered > 0)
  | Rlibm.Reduction.Exp_kernel _ -> Alcotest.fail "log2 has a log kernel"

let test_nonfinite_inputs () =
  let g = generate_ok Oracle.Exp2 Polyeval.Horner in
  Alcotest.(check bool) "nan -> nan" true
    (Float.is_nan (Genlibm.eval_bits g (Softfp.nan_bits tiny)));
  Alcotest.(check (float 0.0)) "+inf -> inf" Float.infinity
    (Genlibm.eval_bits g (Softfp.inf_bits tiny ~neg:false));
  Alcotest.(check (float 0.0)) "-inf -> 0" 0.0
    (Genlibm.eval_bits g (Softfp.inf_bits tiny ~neg:true));
  let gl = generate_ok Oracle.Log2 Polyeval.Horner in
  Alcotest.(check bool) "log -inf -> nan" true
    (Float.is_nan (Genlibm.eval_bits gl (Softfp.inf_bits tiny ~neg:true)));
  Alcotest.(check (float 0.0)) "log +inf -> inf" Float.infinity
    (Genlibm.eval_bits gl (Softfp.inf_bits tiny ~neg:false));
  Alcotest.(check (float 0.0)) "log 0 -> -inf" Float.neg_infinity
    (Genlibm.eval_bits gl (Softfp.zero_bits tiny))

let test_exact_identities () =
  (* 2^0 = 1 and log2(1) = 0 must come out exactly right through the whole
     generated path (either via the polynomial or a special case). *)
  let g = generate_ok Oracle.Exp2 Polyeval.Horner in
  let zero = Softfp.zero_bits tiny in
  Alcotest.(check (float 0.0)) "2^0 = 1" 1.0 (Genlibm.eval_bits g zero);
  let gl = generate_ok Oracle.Log2 Polyeval.Horner in
  let one = Softfp.of_rat tiny Softfp.RNE Rat.one in
  Alcotest.(check (float 0.0)) "log2 1 = 0" 0.0 (Genlibm.eval_bits gl one)

let test_round_result_nonfinite () =
  let f = tiny in
  Alcotest.(check bool) "nan" true
    (Softfp.is_nan f (Genlibm.round_result f Softfp.RNE Float.nan));
  Alcotest.(check int64) "inf" (Softfp.inf_bits f ~neg:false)
    (Genlibm.round_result f Softfp.RNE Float.infinity);
  Alcotest.(check int64) "-inf" (Softfp.inf_bits f ~neg:true)
    (Genlibm.round_result f Softfp.RNE Float.neg_infinity);
  Alcotest.(check int64) "-0" (Softfp.neg_zero_bits f)
    (Genlibm.round_result f Softfp.RNE (-0.0))

let test_table1_row () =
  let g = generate_ok Oracle.Exp2 Polyeval.Horner in
  let row = Genlibm.table1_row g in
  Alcotest.(check bool) "pieces" true (row.Genlibm.n_pieces >= 1);
  Alcotest.(check bool) "degrees bounded" true
    (List.for_all
       (fun d -> d <= tiny_cfg.Rlibm.Config.max_degree)
       row.Genlibm.degrees);
  Alcotest.(check bool) "specials bounded" true
    (row.Genlibm.n_specials <= Hashtbl.length g.Rlibm.Generate.specials + 1000)

let test_post_process_pitfall () =
  (* Section 6.3: adapting the Horner polynomial as a post-process breaks
     correctness for some inputs, while the integrated loop does not.  We
     check the mechanism: take the Horner-generated polynomial, adapt its
     coefficients outside the loop, and count inputs whose result leaves
     the rounding interval.  (On tiny universes the count can occasionally
     be zero; we therefore only assert that the integrated version is
     never worse, and record that the experiment runs end to end.) *)
  let g = generate_ok Oracle.Exp10 Polyeval.Horner in
  let integrated =
    try Rlibm.Generate.n_specials (generate_ok Oracle.Exp10 Polyeval.Knuth)
    with _ -> max_int
  in
  let post_wrong = ref 0 in
  let oracle = oracle_of Oracle.Exp10 in
  (match Polyeval.compile Polyeval.Knuth g.Rlibm.Generate.pieces.(0).Polyeval.data with
  | None -> Alcotest.fail "Knuth cannot adapt the Horner polynomial"
  | Some adapted ->
      (* count verification failures of the post-adapted polynomial on
         piece 0, evaluated through the served kernel *)
      let post =
        {
          g with
          Rlibm.Generate.scheme = Polyeval.Knuth;
          pieces = Array.map (fun _ -> adapted) g.Rlibm.Generate.pieces;
        }
      in
      let tout = Rlibm.Config.tout tiny_cfg in
      let xs = Lazy.force inputs in
      let n = Array.length xs in
      let src = Genlibm.create_src n and dst = Genlibm.create_dst n in
      Array.iteri (Bigarray.Array1.set src) xs;
      Genlibm.eval_bits_into post ~src ~dst ~lo:0 ~hi:n;
      (* The kernel serves the rebuilt function's own pieces: the
         adapted Knuth coefficients, as the reference evaluates them. *)
      Array.iteri
        (fun i x ->
          let r = Int64.bits_of_float (Genlibm.eval_bits post x)
          and k = Int64.bits_of_float dst.{i} in
          if not (Int64.equal r k) then
            Alcotest.failf "post-processed input %Lx: eval_bits %Lx, kernel %Lx"
              x r k)
        xs;
      let s = Rlibm.Reduction.scratch () in
      Array.iteri
        (fun i x ->
          if
            Softfp.is_finite tiny x
            && not (Hashtbl.mem g.Rlibm.Generate.specials x)
          then begin
            let xf = Softfp.to_float tiny x in
            if g.Rlibm.Generate.family.Rlibm.Reduction.shortcut xf = None then begin
              s.Rlibm.Reduction.sf.Rlibm.Reduction.sx <- xf;
              g.Rlibm.Generate.family.Rlibm.Reduction.reduce_into s;
              if s.Rlibm.Reduction.spiece = 0 then begin
                let y_impl = Genlibm.round_result tout Softfp.RTO dst.{i} in
                match Hashtbl.find_opt oracle x with
                | Some y_true when not (Int64.equal y_impl y_true) ->
                    incr post_wrong
                | _ -> ()
              end
            end
          end)
        xs);
  (* integrated never needs more specials than post-processing produces
     wrong results + the original special budget *)
  Alcotest.(check bool)
    (Printf.sprintf "integrated (%d specials) <= post-process wrong (%d) + budget"
       integrated !post_wrong)
    true
    (integrated <= !post_wrong + tiny_cfg.Rlibm.Config.max_specials)

let test_sampled_inputs () =
  let f = Softfp.binary32 in
  let a = Genlibm.inputs_sampled f ~count:500 ~seed:7 in
  let b = Genlibm.inputs_sampled f ~count:500 ~seed:7 in
  Alcotest.(check bool) "deterministic" true (a = b);
  Alcotest.(check bool) "finite only" true
    (Array.for_all (Softfp.is_finite f) a);
  (* boundary values always present *)
  let mem v = Array.exists (Int64.equal v) a in
  Alcotest.(check bool) "zero included" true (mem (Softfp.zero_bits f));
  Alcotest.(check bool) "max finite included" true
    (mem (Softfp.max_finite_bits f ~neg:false));
  Alcotest.(check bool) "min subnormal included" true
    (mem (Softfp.min_subnormal_bits f ~neg:false))


let test_codegen_structure () =
  let g = generate_ok Oracle.Exp2 Polyeval.EstrinFma in
  let c_src = Codegen.to_c g ~name:"rlibm_exp2" in
  let ml_src = Codegen.to_ocaml g ~name:"rlibm_exp2" in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  (* the C artifact is a complete translation unit *)
  Alcotest.(check bool) "c signature" true
    (contains c_src "double rlibm_exp2(double x)");
  Alcotest.(check bool) "c includes math.h" true (contains c_src "#include <math.h>");
  Alcotest.(check bool) "c uses ldexp" true (contains c_src "ldexp(");
  (* estrin-fma must actually emit fma calls *)
  Alcotest.(check bool) "c uses fma" true (contains c_src "fma(");
  (* every coefficient appears verbatim as a hex literal *)
  Array.iter
    (fun (piece : Polyeval.compiled) ->
      Array.iter
        (fun coef ->
          Alcotest.(check bool)
            (Printf.sprintf "coefficient %h emitted" coef)
            true
            (contains c_src (Printf.sprintf "%h" coef)))
        piece.Polyeval.data)
    g.Rlibm.Generate.pieces;
  (* OCaml side *)
  Alcotest.(check bool) "ml signature" true
    (contains ml_src "let rlibm_exp2 (x : float) : float =");
  Alcotest.(check bool) "ml uses Float.fma" true (contains ml_src "Float.fma");
  (* log family gets a table *)
  let gl = generate_ok Oracle.Log2 Polyeval.Horner in
  let cl = Codegen.to_c gl ~name:"rlibm_log2" in
  Alcotest.(check bool) "log table emitted" true (contains cl "rlibm_log2_tbl");
  Alcotest.(check bool) "log frexp" true (contains cl "frexp(")

let suite =
  [
    ("sampled inputs", `Quick, test_sampled_inputs);
    ("exp2/horner exhaustive", `Slow, test_exp2_horner);
    ("exp2/estrin-fma exhaustive", `Slow, test_exp2_estrin_fma);
    ("log2/horner exhaustive", `Slow, test_log2_horner);
    ("log2/estrin exhaustive", `Slow, test_log2_estrin);
    ("exp/estrin-fma exhaustive", `Slow, test_exp_estrin_fma);
    ("log10/estrin-fma exhaustive", `Slow, test_log10_estrin_fma);
    ("verify sees the served kernel", `Slow, test_verify_sees_kernel);
    ("non-finite inputs", `Slow, test_nonfinite_inputs);
    ("exact identities", `Slow, test_exact_identities);
    ("round_result non-finite", `Quick, test_round_result_nonfinite);
    ("table1 row", `Slow, test_table1_row);
    ("post-process pitfall (§6.3)", `Slow, test_post_process_pitfall);
    ("codegen structure", `Slow, test_codegen_structure);
  ]
