(* Tests for the evaluation schemes: bit-exact agreement between the batch
   evaluator and the reference DAG semantics, Knuth adaptation identities,
   operation counts from the paper, and the cubic solver. *)

let powers n = Array.init n Fun.id

let dense_exact coeffs x =
  Lp.eval_poly ~powers:(powers (Array.length coeffs))
    (Array.map Rat.of_float coeffs)
    x

(* ---------- cubic solver ---------- *)

let test_cubic_known_roots () =
  (* (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6 *)
  let root = Cubic.real_root ~c3:1.0 ~c2:(-6.0) ~c1:11.0 ~c0:(-6.0) in
  let p = Cubic.eval ~c3:1.0 ~c2:(-6.0) ~c1:11.0 ~c0:(-6.0) in
  Alcotest.(check bool) "is a root" true (Float.abs (p root) < 1e-9);
  (* single real root *)
  let root = Cubic.real_root ~c3:1.0 ~c2:0.0 ~c1:0.0 ~c0:(-8.0) in
  Alcotest.(check (float 1e-12)) "cbrt 8" 2.0 root;
  (* negative leading coefficient *)
  let root = Cubic.real_root ~c3:(-2.0) ~c2:0.0 ~c1:0.0 ~c0:16.0 in
  Alcotest.(check (float 1e-12)) "neg leading" 2.0 root;
  Alcotest.check_raises "degree < 3"
    (Invalid_argument "Cubic.real_root: degree < 3") (fun () ->
      ignore (Cubic.real_root ~c3:0.0 ~c2:1.0 ~c1:0.0 ~c0:0.0))

(* Counterexample printers, floats in hex so that a failure reproduces
   bit for bit. *)
let hexf = Printf.sprintf "%h"
let print_coeffs_x = QCheck2.Print.(pair (array hexf) hexf)
let print_coeffs_xs_lo = QCheck2.Print.(triple (array hexf) (array hexf) int)

let prop_cubic_random =
  let gen =
    QCheck2.Gen.(
      let* c3 = float_range (-10.0) 10.0 in
      let* c2 = float_range (-10.0) 10.0 in
      let* c1 = float_range (-10.0) 10.0 in
      let* c0 = float_range (-10.0) 10.0 in
      return (c3, c2, c1, c0))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"cubic root residual is tiny"
       ~print:QCheck2.Print.(quad hexf hexf hexf hexf) gen
       (fun (c3, c2, c1, c0) ->
         QCheck2.assume (Float.abs c3 > 0.01);
         let x = Cubic.real_root ~c3 ~c2 ~c1 ~c0 in
         let residual = Float.abs (Cubic.eval ~c3 ~c2 ~c1 ~c0 x) in
         let scale =
           1.0 +. Float.abs c0 +. Float.abs c1 +. Float.abs c2 +. Float.abs c3
         in
         residual /. scale < 1e-8))

(* [eval_into] on one point. *)
let eval1 scheme data x =
  let dst = Float.Array.make 1 0.0 in
  Polyeval.eval_into scheme data ~src:(Float.Array.make 1 x) ~dst ~lo:0 ~hi:1;
  Float.Array.get dst 0

(* ---------- paper's running example ---------- *)

let test_paper_example () =
  (* u(x) = -6 + 6x + 42x^2 + 18x^3 + 2x^4, adapted:
     y = (x+4)x - 1, u = ((y + x + 3)y - 1) * 2 *)
  let u = [| -6.; 6.; 42.; 18.; 2. |] in
  match Polyeval.adapt_knuth u with
  | None -> Alcotest.fail "adaptation must exist"
  | Some a ->
      Alcotest.(check (array (float 0.0))) "alphas" [| 4.; -1.; 3.; -1.; 2. |] a;
      (* evaluation matches the dense polynomial exactly here (the adapted
         coefficients are small integers) *)
      List.iter
        (fun x ->
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "u(%g)" x)
            (Rat.to_float (dense_exact u (Rat.of_float x)))
            (eval1 Polyeval.Knuth a x))
        [ -2.0; -0.5; 0.0; 0.3; 1.0; 2.5 ]

(* ---------- op counts from the paper ---------- *)

let test_op_counts () =
  let cost s d = Expr.cost (Polyeval.scheme_expr s ~degree:d) in
  let check name c (m, a, f) =
    Alcotest.(check (triple int int int))
      name (m, a, f)
      (c.Expr.mults, c.Expr.adds, c.Expr.fmas)
  in
  (* Horner: d mults + d adds *)
  check "horner 4" (cost Polyeval.Horner 4) (4, 4, 0);
  check "horner 6" (cost Polyeval.Horner 6) (6, 6, 0);
  (* Knuth, from Section 3: deg 4 = 3 mul/5 add; deg 5 = 4 mul/5 add;
     deg 6 = 4 mul/7 add *)
  check "knuth 4" (cost Polyeval.Knuth 4) (3, 5, 0);
  check "knuth 5" (cost Polyeval.Knuth 5) (4, 5, 0);
  check "knuth 6" (cost Polyeval.Knuth 6) (4, 7, 0);
  (* Horner-fma: d fmas *)
  check "horner-fma 5" (cost Polyeval.HornerFma 5) (0, 0, 5);
  (* Estrin+fma degree 5: x^2, y^2 mults + 5 fmas *)
  check "estrin-fma 5" (cost Polyeval.EstrinFma 5) (2, 0, 5)

let test_depth_ordering () =
  (* The whole point of Estrin: dependence chains shrink. *)
  List.iter
    (fun d ->
      let depth s = (Expr.cost (Polyeval.scheme_expr s ~degree:d)).Expr.depth in
      Alcotest.(check bool)
        (Printf.sprintf "estrin-fma < horner at degree %d" d)
        true
        (depth Polyeval.EstrinFma < depth Polyeval.Horner);
      Alcotest.(check bool)
        (Printf.sprintf "estrin < horner at degree %d" d)
        true
        (depth Polyeval.Estrin < depth Polyeval.Horner))
    [ 4; 5; 6; 7; 8 ];
  List.iter
    (fun d ->
      let depth s = (Expr.cost (Polyeval.scheme_expr s ~degree:d)).Expr.depth in
      Alcotest.(check bool)
        (Printf.sprintf "knuth <= horner at degree %d" d)
        true
        (depth Polyeval.Knuth <= depth Polyeval.Horner))
    [ 4; 5; 6 ]

(* ---------- bit-exact agreement: batch evaluator vs DAG ---------- *)

(* Why [compile] may return [None]: no scheme compiles past degree 6
   (the C bodies stop at 7 coefficients), and Knuth's adaptation needs
   degree 4-6, a nonzero leading coefficient and finite results. *)
let refused scheme coeffs =
  let d = Array.length coeffs - 1 in
  d > 6
  || scheme = Polyeval.Knuth
     && (d < 4 || coeffs.(d) = 0.0 || Polyeval.adapt_knuth coeffs = None)

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let arb_coeffs_and_x =
  QCheck2.Gen.(
    let* d = int_range 0 8 in
    let* coeffs = array_size (return (d + 1)) (float_range (-4.0) 4.0) in
    let* x = float_range (-2.0) 2.0 in
    return (coeffs, x))

let prop_eval_into_matches_dag scheme =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:600
       ~name:
         (Printf.sprintf "%s eval_into = DAG semantics"
            (Polyeval.scheme_name scheme))
       ~print:print_coeffs_xs_lo
       QCheck2.Gen.(
         let* d = int_range 0 10 in
         let* coeffs = array_size (return (d + 1)) (float_range (-4.0) 4.0) in
         let* xs = array_size (int_range 1 17) (float_range (-2.0) 2.0) in
         let* lo = int_range 0 3 in
         return (coeffs, xs, lo))
       (fun (coeffs, xs, lo) ->
         match Polyeval.compile scheme coeffs with
         | None ->
             refused scheme coeffs
             && (Array.length coeffs <= 7
                || raises_invalid (fun () -> eval1 scheme coeffs 0.5))
         | Some c ->
             let n = Array.length xs in
             (* pad the window on both sides: slots outside [lo, hi)
                must keep their sentinel *)
             let len = lo + n + 1 in
             let src = Float.Array.make len 0.0 in
             let dst = Float.Array.make len Float.nan in
             Array.iteri (fun i x -> Float.Array.set src (lo + i) x) xs;
             Polyeval.eval_into scheme c.Polyeval.data ~src ~dst ~lo
               ~hi:(lo + n);
             let ok = ref (Float.is_nan (Float.Array.get dst (len - 1))) in
             if lo > 0 then
               ok := !ok && Float.is_nan (Float.Array.get dst (lo - 1));
             Array.iteri
               (fun i x ->
                 let want =
                   Int64.bits_of_float
                     (Expr.eval_float c.Polyeval.expr ~data:c.Polyeval.data x)
                 in
                 let got =
                   Int64.bits_of_float (Float.Array.get dst (lo + i))
                 in
                 ok := !ok && Int64.equal want got)
               xs;
             !ok))

(* ---------- contraction witness ---------- *)

(* The DAG with every a * b + c fused into one Fma ([contract]), or
   every Fma split into a multiply and an add ([expand]): what a
   compiler that contracts, or an fma that does not fuse, would
   compute. *)
let rec contract (e : Expr.t) : Expr.t =
  match e with
  | Expr.Add (Expr.Mul (a, b), c) | Expr.Add (c, Expr.Mul (a, b)) ->
      Expr.Fma (contract a, contract b, contract c)
  | Expr.Add (a, b) -> Expr.Add (contract a, contract b)
  | Expr.Mul (a, b) -> Expr.Mul (contract a, contract b)
  | Expr.Fma (a, b, c) -> Expr.Fma (contract a, contract b, contract c)
  | Expr.Var | Expr.Const _ -> e

let rec expand (e : Expr.t) : Expr.t =
  match e with
  | Expr.Fma (a, b, c) -> Expr.Add (Expr.Mul (expand a, expand b), expand c)
  | Expr.Add (a, b) -> Expr.Add (expand a, expand b)
  | Expr.Mul (a, b) -> Expr.Mul (expand a, expand b)
  | Expr.Var | Expr.Const _ -> e

(* For every scheme and length 1-7 (Knuth 5-7), inputs on which fusing
   changes the result: the non-FMA schemes must return the unfused DAG's
   value and the FMA schemes the fused one.  A build that lets the C
   compiler contract (a lost -ffp-contract=off), or an fma that rounds
   twice, fails here on any host. *)
let test_contraction_witness () =
  let st = Random.State.make [| 0xf3a |] in
  let bits = Int64.bits_of_float in
  List.iter
    (fun scheme ->
      let fused = scheme = Polyeval.HornerFma || scheme = Polyeval.EstrinFma in
      let lengths = if scheme = Polyeval.Knuth then [ 5; 6; 7 ] else [ 1; 2; 3; 4; 5; 6; 7 ] in
      List.iter
        (fun n ->
          let rec compiled tries =
            let coeffs = Array.init n (fun _ -> Random.State.float st 8.0 -. 4.0) in
            match Polyeval.compile scheme coeffs with
            | Some c -> c
            | None when tries > 0 -> compiled (tries - 1)
            | None -> Alcotest.failf "%s: no compilable draw" (Polyeval.scheme_name scheme)
          in
          let c = compiled 100 in
          let data = c.Polyeval.data in
          let dag = c.Polyeval.expr in
          let other = if fused then expand dag else contract dag in
          let value e x = bits (Expr.eval_float e ~data x) in
          let witnesses =
            List.filter
              (fun x -> not (Int64.equal (value dag x) (value other x)))
              (List.init 4096 (fun _ -> Random.State.float st 4.0 -. 2.0))
          in
          let name = Printf.sprintf "%s length %d" (Polyeval.scheme_name scheme) n in
          if n > 1 && witnesses = [] then Alcotest.failf "%s: no witness input" name;
          let xs = Float.Array.of_list (if n > 1 then witnesses else [ 0.5; -1.25 ]) in
          let m = Float.Array.length xs in
          let dst = Float.Array.make m 0.0 in
          Polyeval.eval_into scheme data ~src:xs ~dst ~lo:0 ~hi:m;
          Float.Array.iteri
            (fun i x ->
              let got = bits (Float.Array.get dst i) in
              if not (Int64.equal got (value dag x)) then
                Alcotest.failf "%s at %h: %Lx, but the %s DAG gives %Lx" name x got
                  (if fused then "fused" else "unfused")
                  (value dag x))
            xs)
        lengths)
    Polyeval.all_schemes

(* ---------- bit-exact agreement: one-input calls ---------- *)

(* The scalar closure over a compiled polynomial: [eval_into] on a
   one-slot window, the path a one-input request takes. *)
let scalar_closure c = eval1 c.Polyeval.scheme c.Polyeval.data

let prop_closure_matches_dag scheme =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:600
       ~name:
         (Printf.sprintf "%s closure = DAG semantics"
            (Polyeval.scheme_name scheme))
       ~print:print_coeffs_x arb_coeffs_and_x
       (fun (coeffs, x) ->
         match Polyeval.compile scheme coeffs with
         | None -> refused scheme coeffs
         | Some c ->
             let fast = scalar_closure c x in
             let reference =
               Expr.eval_float c.Polyeval.expr ~data:c.Polyeval.data x
             in
             Int64.equal (Int64.bits_of_float fast)
               (Int64.bits_of_float reference)))

(* A window of any length and offset gives every element the value it
   gets alone. *)
let prop_eval_into_matches_closure scheme =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:400
       ~name:
         (Printf.sprintf "%s eval_into = scalar closure"
            (Polyeval.scheme_name scheme))
       ~print:print_coeffs_xs_lo
       QCheck2.Gen.(
         let* d = int_range 0 10 in
         let* coeffs = array_size (return (d + 1)) (float_range (-4.0) 4.0) in
         let* xs = array_size (int_range 1 17) (float_range (-2.0) 2.0) in
         let* lo = int_range 0 3 in
         return (coeffs, xs, lo))
       (fun (coeffs, xs, lo) ->
         match Polyeval.compile scheme coeffs with
         | None -> true
         | Some c ->
             let n = Array.length xs in
             let len = lo + n + 1 in
             let src = Float.Array.make len 0.0 in
             let dst = Float.Array.make len Float.nan in
             Array.iteri (fun i x -> Float.Array.set src (lo + i) x) xs;
             Polyeval.eval_into scheme c.Polyeval.data ~src ~dst ~lo
               ~hi:(lo + n);
             let ok = ref (Float.is_nan (Float.Array.get dst (len - 1))) in
             if lo > 0 then
               ok := !ok && Float.is_nan (Float.Array.get dst (lo - 1));
             Array.iteri
               (fun i x ->
                 let want = Int64.bits_of_float (scalar_closure c x) in
                 let got =
                   Int64.bits_of_float (Float.Array.get dst (lo + i))
                 in
                 ok := !ok && Int64.equal want got)
               xs;
             !ok))

let test_eval_into_knuth_bad_degree () =
  let src = Float.Array.make 1 0.5 and dst = Float.Array.make 1 0.0 in
  Alcotest.check_raises "knuth data length"
    (Invalid_argument "Polyeval.eval_into: Knuth degree must be 4, 5 or 6")
    (fun () ->
      Polyeval.eval_into Polyeval.Knuth [| 1.0; 2.0 |] ~src ~dst ~lo:0 ~hi:1)

let test_degree_7_refused () =
  let c = Array.init 8 (fun i -> 1.0 /. float_of_int (i + 1)) in
  List.iter
    (fun scheme ->
      let name = Polyeval.scheme_name scheme in
      Alcotest.(check bool) (name ^ " compile") true
        (Polyeval.compile scheme c = None);
      Alcotest.(check bool) (name ^ " of_data") true
        (Polyeval.of_data scheme c = None);
      Alcotest.(check bool) (name ^ " eval_into raises") true
        (raises_invalid (fun () -> eval1 scheme c 0.5)))
    Polyeval.all_schemes

(* ---------- algebraic identities ---------- *)

let prop_exact_value_is_dense scheme =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:
         (Printf.sprintf "%s algebraic value = dense polynomial"
            (Polyeval.scheme_name scheme))
       ~print:print_coeffs_x arb_coeffs_and_x
       (fun (coeffs, x) ->
         match Polyeval.compile scheme coeffs with
         | None -> true
         | Some c ->
             let xe = Rat.of_float x in
             Rat.equal (Polyeval.eval_exact c xe) (dense_exact coeffs xe)))

let prop_knuth_identity =
  (* Adaptation computed in doubles: the adapted form expands to a
     polynomial within solver/rounding tolerance of the original. *)
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:400 ~name:"knuth adaptation is a near-identity"
       ~print:print_coeffs_x
       QCheck2.Gen.(
         let* d = int_range 4 6 in
         let* coeffs = array_size (return (d + 1)) (float_range (-3.0) 3.0) in
         let* x = float_range (-2.0) 2.0 in
         return (coeffs, x))
       (fun (coeffs, x) ->
         let d = Array.length coeffs - 1 in
         QCheck2.assume (Float.abs coeffs.(d) > 0.25);
         match Polyeval.compile Polyeval.Knuth coeffs with
         | None -> false
         | Some c ->
             let xe = Rat.of_float x in
             let got = Rat.to_float (Polyeval.eval_exact c xe) in
             let want = Rat.to_float (dense_exact coeffs xe) in
             let scale =
               Array.fold_left (fun acc v -> acc +. Float.abs v) 1.0 coeffs
             in
             (* cubic-root conditioning can cost many digits; a wrong
                formula errs at O(1) relative, so 1e-4 still catches it
                while tolerating ill-conditioned draws *)
             let conditioning = 1.0 +. (scale /. Float.abs coeffs.(d)) in
             Float.abs (got -. want) /. (scale *. conditioning ** 2.0) < 1e-4))

let test_knuth_na_cases () =
  Alcotest.(check bool) "degree 3" true (Polyeval.adapt_knuth [| 1.; 2.; 3.; 4. |] = None);
  Alcotest.(check bool) "degree 7" true
    (Polyeval.adapt_knuth (Array.make 8 1.0) = None);
  Alcotest.(check bool) "zero leading" true
    (Polyeval.adapt_knuth [| 1.; 2.; 3.; 4.; 0.0 |] = None);
  Alcotest.(check bool) "compile falls back" true
    (Polyeval.compile Polyeval.Knuth [| 1.; 2. |] = None)

let test_scheme_names () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (Polyeval.scheme_name s) true
        (Polyeval.scheme_of_name (Polyeval.scheme_name s) = Some s))
    Polyeval.all_schemes;
  Alcotest.(check int) "paper schemes" 4 (List.length Polyeval.paper_schemes)

let test_estrin_matches_algorithm1 () =
  (* Degree 6, explicit trace of Algorithm 1 with fma. *)
  let c = [| 1.; 2.; 3.; 4.; 5.; 6.; 7. |] in
  let x = 0.37 in
  let fma = Float.fma in
  let v0 = fma c.(1) x c.(0) and v1 = fma c.(3) x c.(2) and v2 = fma c.(5) x c.(4) in
  let v3 = c.(6) in
  let y = x *. x in
  let w0 = fma v1 y v0 and w1 = fma v3 y v2 in
  let expect = fma w1 (y *. y) w0 in
  Alcotest.(check (float 0.0)) "trace" expect (eval1 Polyeval.EstrinFma c x)

let suite =
  [
    ("cubic known roots", `Quick, test_cubic_known_roots);
    prop_cubic_random;
    ("paper running example", `Quick, test_paper_example);
    ("op counts (paper §3-4)", `Quick, test_op_counts);
    ("depth ordering", `Quick, test_depth_ordering);
    ("knuth N/A cases", `Quick, test_knuth_na_cases);
    ("scheme names", `Quick, test_scheme_names);
    ("estrin = Algorithm 1 trace", `Quick, test_estrin_matches_algorithm1);
    ("eval_into knuth bad degree", `Quick, test_eval_into_knuth_bad_degree);
    ("degree 7 refused by every scheme", `Quick, test_degree_7_refused);
    ("contraction witness: fma exactly where the DAG has one", `Quick, test_contraction_witness);
    prop_knuth_identity;
  ]
  @ List.map prop_closure_matches_dag Polyeval.all_schemes
  @ List.map prop_eval_into_matches_closure Polyeval.all_schemes
  @ List.map prop_eval_into_matches_dag Polyeval.all_schemes
  @ List.map prop_exact_value_is_dense
      [ Polyeval.Horner; Polyeval.HornerFma; Polyeval.Estrin; Polyeval.EstrinFma ]
