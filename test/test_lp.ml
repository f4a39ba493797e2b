(* Tests for the exact-rational simplex and the interval-system driver. *)

let r = Rat.of_int
let rr = Rat.of_ints

let opt_value = function
  | Lp.Optimal (_, v) -> v
  | Lp.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Lp.Unbounded -> Alcotest.fail "unexpected unbounded"

let test_basic_max () =
  (* max x + y s.t. x <= 3, y <= 4, x + y <= 5 *)
  let v =
    opt_value
      (Lp.maximize ~obj:[| r 1; r 1 |]
         ~rows:
           [|
             ([| r 1; r 0 |], r 3); ([| r 0; r 1 |], r 4); ([| r 1; r 1 |], r 5);
           |])
  in
  Alcotest.(check string) "objective" "5" (Rat.to_string v)

let test_infeasible () =
  match
    Lp.maximize ~obj:[| r 1 |] ~rows:[| ([| r 1 |], r 1); ([| r (-1) |], r (-2)) |]
  with
  | Lp.Infeasible -> ()
  | _ -> Alcotest.fail "should be infeasible"

let test_unbounded () =
  match Lp.maximize ~obj:[| r 1 |] ~rows:[| ([| r (-1) |], r 0) |] with
  | Lp.Unbounded -> ()
  | _ -> Alcotest.fail "should be unbounded"

let test_free_variables () =
  (* max -x s.t. -x <= 10: optimum at x = -10 *)
  match Lp.maximize ~obj:[| r (-1) |] ~rows:[| ([| r (-1) |], r 10) |] with
  | Lp.Optimal (sol, v) ->
      Alcotest.(check string) "value" "10" (Rat.to_string v);
      Alcotest.(check string) "solution" "-10" (Rat.to_string sol.(0))
  | _ -> Alcotest.fail "should be optimal"

let test_phase1_degenerate () =
  (* equality-like: x + y <= 2, x >= 1, y >= 1 pins x = y = 1 *)
  match
    Lp.maximize ~obj:[| r 1; r 2 |]
      ~rows:
        [|
          ([| r 1; r 1 |], r 2);
          ([| r (-1); r 0 |], r (-1));
          ([| r 0; r (-1) |], r (-1));
        |]
  with
  | Lp.Optimal (sol, v) ->
      Alcotest.(check string) "obj" "3" (Rat.to_string v);
      Alcotest.(check string) "x" "1" (Rat.to_string sol.(0));
      Alcotest.(check string) "y" "1" (Rat.to_string sol.(1))
  | _ -> Alcotest.fail "should be optimal"

let test_exact_rational_vertex () =
  (* Vertex with non-integer rational coordinates must come out exact:
     max x + y s.t. 2x + 3y <= 7, 3x + 2y <= 7 -> x = y = 7/5. *)
  match
    Lp.maximize ~obj:[| r 1; r 1 |]
      ~rows:[| ([| r 2; r 3 |], r 7); ([| r 3; r 2 |], r 7) |]
  with
  | Lp.Optimal (sol, v) ->
      Alcotest.(check string) "x" "7/5" (Rat.to_string sol.(0));
      Alcotest.(check string) "y" "7/5" (Rat.to_string sol.(1));
      Alcotest.(check string) "obj" "14/5" (Rat.to_string v)
  | _ -> Alcotest.fail "should be optimal"

let test_interval_cubic_fit () =
  let powers = [| 0; 1; 2; 3 |] in
  let truth x = Rat.(add (sub (pow x 3) (mul (of_int 2) x)) one) in
  let points =
    Array.init 400 (fun i ->
        let x = rr (i - 200) 80 in
        let v = truth x in
        let eps = rr 1 1000 in
        { Lp.x; lo = Rat.sub v eps; hi = Rat.add v eps })
  in
  match Lp.solve_interval_system ~powers points with
  | Lp.Sat (coeffs, _) ->
      Array.iter
        (fun pt ->
          let v = Lp.eval_poly ~powers coeffs pt.Lp.x in
          Alcotest.(check bool) "in window" true
            (Rat.compare pt.Lp.lo v <= 0 && Rat.compare v pt.Lp.hi <= 0))
        points
  | Lp.Unsat -> Alcotest.fail "cubic fit should be satisfiable"

let test_interval_infeasible () =
  let mk x v =
    { Lp.x = r x; lo = Rat.sub (r v) (rr 1 100); hi = Rat.add (r v) (rr 1 100) }
  in
  match
    Lp.solve_interval_system ~powers:[| 0; 1 |] [| mk 0 0; mk 1 1; mk 2 0 |]
  with
  | Lp.Unsat -> ()
  | Lp.Sat _ -> Alcotest.fail "line through 3 non-collinear windows"

let test_interval_degenerate_point () =
  (* A degenerate window [v,v] forces exact interpolation. *)
  let pts =
    [|
      { Lp.x = r 0; lo = r 1; hi = r 1 };
      { Lp.x = r 1; lo = rr 19 10; hi = rr 21 10 };
    |]
  in
  match Lp.solve_interval_system ~powers:[| 0; 1 |] pts with
  | Lp.Sat (coeffs, _) ->
      Alcotest.(check string) "c0 pinned" "1" (Rat.to_string coeffs.(0))
  | Lp.Unsat -> Alcotest.fail "degenerate point is satisfiable"

let test_warm_start () =
  let powers = [| 0; 1; 2 |] in
  let truth x = Rat.(add (mul x x) one) in
  let points =
    Array.init 200 (fun i ->
        let x = rr (i - 100) 40 in
        let v = truth x in
        { Lp.x; lo = Rat.sub v (rr 1 50); hi = Rat.add v (rr 1 50) })
  in
  match Lp.solve_interval_system ~powers points with
  | Lp.Unsat -> Alcotest.fail "should fit"
  | Lp.Sat (_, working) -> (
      (* re-solving with the warm start must also succeed *)
      match Lp.solve_interval_system ~initial_working:working ~powers points with
      | Lp.Sat (coeffs, _) ->
          Array.iter
            (fun pt ->
              let v = Lp.eval_poly ~powers coeffs pt.Lp.x in
              Alcotest.(check bool) "warm in window" true
                (Rat.compare pt.Lp.lo v <= 0 && Rat.compare v pt.Lp.hi <= 0))
            points
      | Lp.Unsat -> Alcotest.fail "warm start lost feasibility")


let test_tilt_changes_vertex () =
  (* With a box of feasible polynomials, different tilts should be able to
     reach different optima while staying feasible. *)
  let powers = [| 0; 1 |] in
  let points =
    Array.init 50 (fun i ->
        let x = rr i 50 in
        { Lp.x; lo = r 0; hi = r 1 })
  in
  let solve tilt =
    match Lp.solve_interval_system ?tilt ~powers points with
    | Lp.Sat (coeffs, _) ->
        Array.iter
          (fun pt ->
            let v = Lp.eval_poly ~powers coeffs pt.Lp.x in
            Alcotest.(check bool) "feasible under tilt" true
              (Rat.compare pt.Lp.lo v <= 0 && Rat.compare v pt.Lp.hi <= 0))
          points;
        coeffs
    | Lp.Unsat -> Alcotest.fail "box system is satisfiable"
  in
  let base = solve None in
  let up = solve (Some [| rr 1 1000; Rat.zero |]) in
  let down = solve (Some [| rr (-1) 1000; Rat.zero |]) in
  (* tilting c0 up vs down must order the constant terms *)
  Alcotest.(check bool) "tilt direction respected" true
    (Rat.compare down.(0) up.(0) <= 0);
  ignore base

let test_mono_bits_still_feasible () =
  (* Rounded monomials must not break feasibility verdicts on a system
     with comfortable windows. *)
  let powers = [| 0; 1; 2; 3; 4; 5 |] in
  let points =
    Array.init 300 (fun i ->
        (* x with a full 53-bit mantissa *)
        let x = Rat.of_float (0.001 +. (float_of_int i *. 0.00333)) in
        let v = Rat.of_float (exp (Rat.to_float x)) in
        { Lp.x; lo = Rat.sub v (rr 1 10000); hi = Rat.add v (rr 1 10000) })
  in
  match Lp.solve_interval_system ~mono_bits:64 ~powers points with
  | Lp.Sat (coeffs, _) ->
      (* check against the EXACT monomials: the solution may exceed the
         window only by the monomial perturbation, which is far below the
         window width here *)
      Array.iter
        (fun pt ->
          let v = Lp.eval_poly ~powers coeffs pt.Lp.x in
          let slack = rr 1 100000 in
          Alcotest.(check bool) "within widened window" true
            (Rat.compare (Rat.sub pt.Lp.lo slack) v <= 0
            && Rat.compare v (Rat.add pt.Lp.hi slack) <= 0))
        points
  | Lp.Unsat -> Alcotest.fail "smooth degree-5 fit must be satisfiable"

let test_degenerate_with_tilt () =
  (* A degenerate window must pin the polynomial exactly even under
     tilt. *)
  let pts =
    [|
      { Lp.x = r 0; lo = r 1; hi = r 1 };
      { Lp.x = r 1; lo = rr 19 10; hi = rr 21 10 };
    |]
  in
  match
    Lp.solve_interval_system ~tilt:[| rr 1 64; rr (-1) 64 |] ~powers:[| 0; 1 |]
      pts
  with
  | Lp.Sat (coeffs, _) ->
      Alcotest.(check string) "c0 pinned under tilt" "1"
        (Rat.to_string coeffs.(0))
  | Lp.Unsat -> Alcotest.fail "satisfiable"

(* Fewer points than coefficients leave the tilt direction unbounded:
   the solve falls back to the pure max-delta objective and still
   returns a fitting polynomial; an infeasible thin system stays Unsat
   under tilt. *)
let test_tilt_unbounded_falls_back () =
  let powers = [| 0; 1; 2 |] in
  let tilt = [| rr 1 64; Rat.zero; Rat.zero |] in
  (match
     Lp.solve_interval_system ~tilt ~powers [| { Lp.x = r 1; lo = r 1; hi = r 2 } |]
   with
  | Lp.Sat (coeffs, _) ->
      let v = Lp.eval_poly ~powers coeffs (r 1) in
      Alcotest.(check bool) "in window" true
        (Rat.compare (r 1) v <= 0 && Rat.compare v (r 2) <= 0)
  | Lp.Unsat -> Alcotest.fail "one window is satisfiable");
  match
    Lp.solve_interval_system ~tilt ~powers
      [| { Lp.x = r 1; lo = r 1; hi = r 2 }; { Lp.x = r 1; lo = r 3; hi = r 4 } |]
  with
  | Lp.Unsat -> ()
  | Lp.Sat _ -> Alcotest.fail "disjoint windows at one x"

(* (n, m, row-major entries, rhs, objective) of a random LP. *)
let print_lp = QCheck2.Print.(tup5 int int (list int) (list int) (list int))

(* Random LP property: simplex result is feasible, and no better feasible
   point exists among random samples (soundness of optimality). *)
let prop_simplex_sound =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 1 3 in
      let* m = int_range 1 6 in
      let* entries = list_size (return (m * n)) (int_range (-5) 5) in
      let* rhs = list_size (return m) (int_range 0 10) in
      let* obj = list_size (return n) (int_range (-3) 3) in
      return (n, m, entries, rhs, obj))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"simplex optimum dominates samples"
       ~print:print_lp gen
       (fun (n, m, entries, rhs, obj) ->
         let a = Array.of_list (List.map r entries) in
         let rows =
           Array.init m (fun i ->
               (Array.init n (fun j -> a.((i * n) + j)), r (List.nth rhs i)))
         in
         let objv = Array.of_list (List.map r obj) in
         match Lp.maximize ~obj:objv ~rows with
         | Lp.Infeasible -> true (* rhs >= 0 makes 0 feasible: impossible *)
         | Lp.Unbounded -> true
         | Lp.Optimal (sol, v) ->
             (* solution satisfies all rows *)
             let feasible x =
               Array.for_all
                 (fun (row, b) ->
                   let dot = ref Rat.zero in
                   Array.iteri
                     (fun j c -> dot := Rat.add !dot (Rat.mul c x.(j)))
                     row;
                   Rat.compare !dot b <= 0)
                 rows
             in
             let objective x =
               let acc = ref Rat.zero in
               Array.iteri (fun j c -> acc := Rat.add !acc (Rat.mul objv.(j) c)) x;
               !acc
             in
             feasible sol
             && Rat.equal (objective sol) v
             &&
             (* random feasible samples never beat the optimum *)
             let st = Random.State.make [| 7 |] in
             let ok = ref true in
             for _ = 1 to 30 do
               let x =
                 Array.init n (fun _ ->
                     rr (Random.State.int st 21 - 10) (1 + Random.State.int st 4))
               in
               if feasible x && Rat.compare (objective x) v > 0 then ok := false
             done;
             !ok))

(* Brute-force reference for small LPs.  When the rows span Q^n the
   feasible set is pointed: it is empty iff it has no vertex, and the
   objective is unbounded on it iff one of its extreme rays raises it.
   Vertices are the feasible solutions of nonsingular n-row subsystems;
   extreme rays are null vectors of (n-1)-row subsystems of rank n-1
   that point into every row's half-space. *)
let rec det m =
  let n = Array.length m in
  if n = 0 then Rat.one
  else begin
    let acc = ref Rat.zero in
    for j = 0 to n - 1 do
      if not (Rat.is_zero m.(0).(j)) then begin
        let minor =
          Array.init (n - 1) (fun i ->
              Array.init (n - 1) (fun k -> m.(i + 1).(if k < j then k else k + 1)))
        in
        let t = Rat.mul m.(0).(j) (det minor) in
        acc := if j land 1 = 0 then Rat.add !acc t else Rat.sub !acc t
      end
    done;
    !acc
  end

let rec subsets k l =
  match (k, l) with
  | 0, _ -> [ [] ]
  | _, [] -> []
  | k, x :: xs -> List.map (fun s -> x :: s) (subsets (k - 1) xs) @ subsets k xs

let dot u v =
  let acc = ref Rat.zero in
  Array.iteri (fun j c -> acc := Rat.add !acc (Rat.mul c v.(j))) u;
  !acc

let brute_force ~obj ~rows =
  let n = Array.length obj and m = Array.length rows in
  let idx = List.init m Fun.id in
  let a i = fst rows.(i) and b i = snd rows.(i) in
  let bases =
    List.filter_map
      (fun s ->
        let s = Array.of_list s in
        let mat = Array.map a s in
        let dt = det mat in
        if Rat.is_zero dt then None else Some (s, mat, dt))
      (subsets n idx)
  in
  if bases = [] then `Rank_deficient
  else begin
    let feasible x = Array.for_all (fun (ai, bi) -> Rat.compare (dot ai x) bi <= 0) rows in
    let vertices =
      List.filter feasible
        (List.map
           (fun (s, mat, dt) ->
             Array.init n (fun j ->
                 Rat.div
                   (det (Array.mapi (fun r row -> Array.mapi (fun k v -> if k = j then b s.(r) else v) row) mat))
                   dt))
           bases)
    in
    if vertices = [] then `Infeasible
    else begin
      let rays =
        List.concat_map
          (fun s ->
            let mat = Array.of_list (List.map a s) in
            let r =
              Array.init n (fun j ->
                  let minor = Array.map (fun row -> Array.of_list (List.filteri (fun k _ -> k <> j) (Array.to_list row))) mat in
                  if j land 1 = 0 then det minor else Rat.neg (det minor))
            in
            if Array.for_all Rat.is_zero r then [] else [ r; Array.map Rat.neg r ])
          (subsets (n - 1) idx)
      in
      if
        List.exists
          (fun r ->
            Rat.sign (dot obj r) > 0
            && Array.for_all (fun (ai, _) -> Rat.sign (dot ai r) <= 0) rows)
          rays
      then `Unbounded
      else `Optimal (List.fold_left (fun acc v -> Rat.max acc (dot obj v)) (dot obj (List.hd vertices)) vertices)
    end
  end

(* The dual solver agrees with vertex enumeration on status and optimal
   value, and its optimum is feasible and attains that value. *)
let prop_simplex_vs_vertices =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 1 3 in
      let* m = int_range 1 8 in
      let* entries = list_size (return (m * n)) (int_range (-5) 5) in
      let* rhs = list_size (return m) (int_range (-6) 10) in
      let* obj = list_size (return n) (int_range (-3) 3) in
      return (n, m, entries, rhs, obj))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"simplex = vertex enumeration"
       ~print:print_lp gen
       (fun (n, m, entries, rhs, obj) ->
         let a = Array.of_list (List.map r entries) in
         let rows =
           Array.init m (fun i ->
               (Array.init n (fun j -> a.((i * n) + j)), r (List.nth rhs i)))
         in
         let obj = Array.of_list (List.map r obj) in
         match (brute_force ~obj ~rows, Lp.maximize ~obj ~rows) with
         | `Rank_deficient, _ -> true
         | `Infeasible, Lp.Infeasible | `Unbounded, Lp.Unbounded -> true
         | `Optimal v, Lp.Optimal (x, v') ->
             Rat.equal v v' && Rat.equal (dot obj x) v
             && Array.for_all (fun (ai, bi) -> Rat.compare (dot ai x) bi <= 0) rows
         | _ -> false))

(* ---------- per-piece systems over doubles ---------- *)

(* What [~mono_bits:64] makes of a monomial: truncation toward zero to 64
   significant bits. *)
let round_bits64 q =
  if Rat.is_zero q then q
  else
    let m, e, _ = Rat.approx q ~bits:64 in
    Rat.mul_pow2 (Rat.of_bigint (if Rat.sign q < 0 then Bigint.neg m else m)) e

(* An odd o with o^2 = 2049 (mod 8192): for o in [2^32, 2^32.5), o^2 has
   65 bits and its truncation to 64 ends in 0x400 — a binary64 rounding
   tie that the exact square is not — with an even bit above it, so the
   tie rounds down where the exact square rounds up.  Adding multiples
   of 2048 keeps the tie and alternates that bit. *)
let tie_root =
  let rec find o = if o * o land 8191 = 2049 then o else find (o + 2) in
  find 1

(* Doubles of every shape the monomials must survive: random finite bit
   patterns, signed zeros, negatives, full 53-bit significands, values
   whose powers fall below 2^-1022 (subnormal or zero shadows), and
   values whose square truncates to a tie. *)
let gen_reduced =
  QCheck2.Gen.(
    let finite =
      map
        (fun b -> let x = Int64.float_of_bits b in if Float.is_finite x then x else 1.5)
        int64
    in
    let full =
      map2
        (fun m e -> Float.ldexp (Float.of_int ((1 lsl 52) lor m lor 1)) (e - 52))
        (int_bound ((1 lsl 52) - 1)) (int_range (-20) 20)
    in
    (* r^p lands at or below 2^-1022 for some p in 2 .. 6, often just
       below it, where the shadow keeps most but not all of its bits. *)
    let tiny =
      map3
        (fun m p j -> Float.ldexp (1.0 +. m) (-((1022 + j) / p) - 1))
        (float_bound_exclusive 1.0) (int_range 2 6) (int_range 0 60)
    in
    let tie =
      map2
        (fun t s ->
          Float.ldexp (Float.of_int (tie_root + (2048 * (2097152 + t)))) s)
        (int_bound 800000) (int_range (-40) 40)
    in
    let any = frequency [ (3, finite); (2, full); (2, tiny); (2, tie); (1, oneofl [ 0.0; -0.0 ]) ] in
    map2 (fun x neg -> if neg then -.x else x) any bool)

let prop_monomials =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500
       ~name:"system monomial = round_bits (pow r p) 64, shadow = to_float"
       ~print:QCheck2.Print.(list (fun x -> Printf.sprintf "%h" x))
       QCheck2.Gen.(list_size (int_range 1 8) gen_reduced)
       (fun rs ->
         let xs = Array.of_list rs in
         let sys = Lp.system xs in
         let ok = ref true in
         for p = 0 to 6 do
           Array.iteri
             (fun i x ->
               let want = round_bits64 (Rat.pow (Rat.of_float x) p) in
               let q, f = Lp.monomial sys i p in
               let wf = Rat.to_float want in
               if not (Rat.equal q want && Int64.equal (Int64.bits_of_float f)
                                             (Int64.bits_of_float wf))
               then ok := false)
             xs
         done;
         !ok))

(* The tie generator does reach ties: the square's shadow rounds the
   truncated mantissa to even, the exact square rounds up. *)
let test_truncated_tie () =
  let x = Float.of_int (tie_root + (2048 * 2097152)) in
  let _, f = Lp.monomial (Lp.system [| x |]) 0 2 in
  let exact = Rat.to_float (Rat.pow (Rat.of_float x) 2) in
  Alcotest.(check bool) "double rounding differs" true (f <> exact);
  Alcotest.(check (float 0.0)) "shadow of the truncation"
    (Rat.to_float (round_bits64 (Rat.pow (Rat.of_float x) 2))) f

let prop_seed_order =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"seed order by doubles = by Rat.compare"
       ~print:QCheck2.Print.(list (fun x -> Printf.sprintf "%h" x))
       QCheck2.Gen.(
         list_size (int_range 0 40)
           (oneof [ oneofl [ 0.0; -0.0; 1.0; -1.0 ]; float_range (-4.0) 4.0 ]))
       (fun l ->
         let xs = Array.of_list (0.0 :: -0.0 :: l) in
         let by_rat = Array.init (Array.length xs) Fun.id in
         Array.sort
           (fun i j -> Rat.compare (Rat.of_float xs.(i)) (Rat.of_float xs.(j)))
           by_rat;
         Lp.seed_order xs = by_rat))

(* The system over doubles solves exactly what solve_interval_system
   solves over the same points as rationals, at ~mono_bits:64 — through
   a view that skips and reorders nothing but starts mid-array. *)
let test_system_matches_rational () =
  let n = 300 in
  let rs = Array.init n (fun i -> if i = 150 then -0.0 else Float.of_int (i - 150) *. 0.00337) in
  let f x = Float.exp x in
  let lo = Array.map (fun x -> f x -. 1e-4) rs and hi = Array.map (fun x -> f x +. 1e-4) rs in
  let sys = Lp.system rs in
  let points =
    Array.init n (fun i ->
        { Lp.x = Rat.of_float rs.(i); lo = Rat.of_float lo.(i); hi = Rat.of_float hi.(i) })
  in
  let same name a b =
    match (a, b) with
    | Lp.Unsat, Lp.Unsat -> ()
    | Lp.Sat (c, w), Lp.Sat (c', w') ->
        Alcotest.(check bool) (name ^ ": coefficients") true (Array.for_all2 Rat.equal c c');
        Alcotest.(check (list int)) (name ^ ": working set") w w'
    | _ -> Alcotest.fail (name ^ ": verdicts differ")
  in
  List.iter
    (fun degree ->
      let powers = Array.init (degree + 1) Fun.id in
      let idx = Array.init n Fun.id in
      let mine = Lp.solve_system ~powers sys ~idx ~lo ~hi in
      same (Printf.sprintf "degree %d" degree) mine
        (Lp.solve_interval_system ~mono_bits:64 ~powers points);
      let tilt = Array.init (degree + 1) (fun k -> Rat.mul_pow2 (Rat.of_int (k - 2)) (-40)) in
      let working = match mine with Lp.Sat (_, w) -> w | Lp.Unsat -> [] in
      let sub = Array.init (n - 7) (fun k -> k + 7) in
      same (Printf.sprintf "degree %d, tilted view" degree)
        (Lp.solve_system ~initial_working:working ~tilt ~powers sys ~idx:sub
           ~lo:(Array.map (fun i -> lo.(i)) sub) ~hi:(Array.map (fun i -> hi.(i)) sub))
        (Lp.solve_interval_system ~initial_working:working ~tilt ~mono_bits:64 ~powers
           (Array.map (fun i -> points.(i)) sub)))
    [ 1; 3; 4 ]

let suite =
  [
    ("basic maximization", `Quick, test_basic_max);
    ("infeasibility", `Quick, test_infeasible);
    ("unboundedness", `Quick, test_unbounded);
    ("free variables", `Quick, test_free_variables);
    ("phase-1 degenerate", `Quick, test_phase1_degenerate);
    ("exact rational vertex", `Quick, test_exact_rational_vertex);
    ("interval cubic fit", `Quick, test_interval_cubic_fit);
    ("interval infeasible", `Quick, test_interval_infeasible);
    ("degenerate window", `Quick, test_interval_degenerate_point);
    ("warm start", `Quick, test_warm_start);
    ("objective tilt", `Quick, test_tilt_changes_vertex);
    ("rounded monomials", `Quick, test_mono_bits_still_feasible);
    ("degenerate window under tilt", `Quick, test_degenerate_with_tilt);
    ("unbounded tilt falls back to max-delta", `Quick,
      test_tilt_unbounded_falls_back);
    ("truncated monomial on a tie", `Quick, test_truncated_tie);
    ("system over doubles = rational system", `Quick, test_system_matches_rational);
    prop_monomials;
    prop_seed_order;
    prop_simplex_sound;
    prop_simplex_vs_vertices;
  ]
