(* Exact-rational linear programming through the dual simplex, plus the
   RLibm-style column-generation driver for interval systems. *)

module R = Rat

type status = Optimal of Rat.t array * Rat.t | Infeasible | Unbounded

(* u . v over the indices of [u]. *)
let dot u v =
  let acc = ref R.zero in
  Array.iteri (fun k x -> acc := R.add !acc (R.mul x v.(k))) u;
  !acc

(* ---------- the dual tableau ----------

   A primal   max c.x   s.t.   a_j . x <= b_j   (j = 1..m, x in Q^n free)
   is solved through its dual

     min b.y   s.t.   sum_j y_j a_j = c,   y >= 0,

   whose tableau has one row per primal variable — n rows, however many
   constraints there are — and one column per primal constraint.  Row k
   is multiplied by its sign s_k (-1 when c_k < 0, else 1) so that its
   right-hand side is nonnegative, and owns one artificial column.  The
   columns are laid out as

     [ artificials 0 .. n-1 | constraints n .. width-1 | rhs at width ]

   The artificial block starts as the identity, so after any sequence of
   pivots it holds B^-1, the inverse of the current basis matrix: a
   constraint column can join at any time with entries B^-1 (s . a),
   priced against the current basis.  The simplex multipliers
   pi = c_B B^-1 are read off the z-row's artificial entries, and at a
   dual optimum x = -(s . pi) is a primal optimum: every constraint
   column has reduced cost pi . (s . a_j) + b_j >= 0, i.e. a_j . x <= b_j,
   and c . x = b . y.

   Phase 1 maximizes minus the sum of the artificials, phase 2 maximizes
   -b.y.  Artificial columns never enter the basis.  One left basic at
   level zero (a degenerate or redundant row) is pinned there: it leaves
   on any nonzero entry of the entering column by a degenerate pivot, so
   the equality it stands for stays exact.  Each such pivot retires an
   artificial for good, so they cannot upset termination. *)

type tableau = {
  rows : int;
  neg : bool array; (* row k was negated: s_k = -1 *)
  mutable width : int; (* artificial + constraint columns *)
  mutable t : R.t array array; (* rows x (width + 1), rhs at [width] *)
  mutable b : R.t array; (* dual cost b_j per column (zero for artificials) *)
  mutable id : int array; (* caller's tag per column (-1 for artificials) *)
  basis : int array; (* basis.(i) = column basic in row i *)
  mutable in_phase1 : bool;
  mutable zrow : R.t array; (* reduced costs z_j - c_j, objective at [width] *)
  mutable pivots : int;
}

(* The maximized objective's coefficient of column [j] in the current
   phase. *)
let cost tb j =
  if tb.in_phase1 then if j < tb.rows then R.minus_one else R.zero
  else if j < tb.rows then R.zero
  else R.neg tb.b.(j)

(* Pivot the constraint rows and the z-row.  Only the pivot row's nonzero
   columns are touched: a zero entry stays zero under normalisation, and
   t_ij - f*0 = t_ij leaves every other row's entry in that column as it
   was. *)
let pivot tb ~row ~col =
  let trow = tb.t.(row) in
  let inv = R.inv trow.(col) in
  let nz = ref [] in
  for j = tb.width downto 0 do
    if not (R.is_zero trow.(j)) then begin
      trow.(j) <- R.mul trow.(j) inv;
      nz := j :: !nz
    end
  done;
  let nz = !nz in
  let eliminate (ti : R.t array) =
    let f = ti.(col) in
    if not (R.is_zero f) then
      List.iter (fun j -> ti.(j) <- R.sub ti.(j) (R.mul f trow.(j))) nz
  in
  for i = 0 to tb.rows - 1 do
    if i <> row then eliminate tb.t.(i)
  done;
  eliminate tb.zrow;
  tb.basis.(row) <- col;
  tb.pivots <- tb.pivots + 1

(* Build the z-row for the current phase's objective: one O(rows * width)
   pass per phase; pivots and [add_columns] keep it current afterwards. *)
let make_zrow tb =
  let cb = Array.map (cost tb) tb.basis in
  tb.zrow <-
    Array.init (tb.width + 1) (fun j ->
        let z = ref R.zero in
        for i = 0 to tb.rows - 1 do
          if not (R.is_zero cb.(i)) then z := R.add !z (R.mul cb.(i) tb.t.(i).(j))
        done;
        if j = tb.width then !z else R.sub !z (cost tb j))

(* The all-artificial basis for right-hand side [c], in phase 1. *)
let create c =
  let rows = Array.length c in
  let neg = Array.map (fun ck -> R.sign ck < 0) c in
  let t =
    Array.init rows (fun i ->
        Array.init (rows + 1) (fun j ->
            if j = rows then R.abs c.(i) else if j = i then R.one else R.zero))
  in
  let tb =
    {
      rows;
      neg;
      width = rows;
      t;
      b = Array.make rows R.zero;
      id = Array.make rows (-1);
      basis = Array.init rows Fun.id;
      in_phase1 = true;
      zrow = [||];
      pivots = 0;
    }
  in
  make_zrow tb;
  tb

(* Append constraint columns [(id, a, b)] (primal row a . x <= b), each
   entered as B^-1 (s . a) with reduced cost pi . (s . a) - cost. *)
let add_columns tb cols =
  let cols = Array.of_list cols in
  let k = Array.length cols in
  if k > 0 then begin
    let w = tb.width and rows = tb.rows in
    let widen row =
      let r = Array.make (w + k + 1) R.zero in
      Array.blit row 0 r 0 w;
      r.(w + k) <- row.(w);
      r
    in
    tb.t <- Array.map widen tb.t;
    tb.zrow <- widen tb.zrow;
    tb.b <- Array.append tb.b (Array.map (fun (_, _, b) -> b) cols);
    tb.id <- Array.append tb.id (Array.map (fun (id, _, _) -> id) cols);
    tb.width <- w + k;
    let pi = Array.init rows (fun r -> R.add tb.zrow.(r) (cost tb r)) in
    Array.iteri
      (fun c (_, a, _) ->
        let sa = Array.mapi (fun r v -> if tb.neg.(r) then R.neg v else v) a in
        for i = 0 to rows - 1 do
          tb.t.(i).(w + c) <- dot sa tb.t.(i)
        done;
        tb.zrow.(w + c) <- R.sub (dot sa pi) (cost tb (w + c)))
      cols
  end

(* Drop the nonbasic constraint columns whose tag satisfies [drop]; the
   basis, and with it the current vertex, is untouched. *)
let drop_columns tb drop =
  let basic = Array.make tb.width false in
  Array.iter (fun j -> basic.(j) <- true) tb.basis;
  let keep =
    List.filter
      (fun j -> j < tb.rows || basic.(j) || not (drop tb.id.(j)))
      (List.init tb.width Fun.id)
    |> Array.of_list
  in
  let w = Array.length keep in
  if w < tb.width then begin
    let remap = Array.make tb.width (-1) in
    Array.iteri (fun nj j -> remap.(j) <- nj) keep;
    let pick row =
      Array.init (w + 1) (fun nj -> if nj = w then row.(tb.width) else row.(keep.(nj)))
    in
    tb.t <- Array.map pick tb.t;
    tb.zrow <- pick tb.zrow;
    tb.b <- Array.map (fun j -> tb.b.(j)) keep;
    tb.id <- Array.map (fun j -> tb.id.(j)) keep;
    Array.iteri (fun i j -> tb.basis.(i) <- remap.(j)) tb.basis;
    tb.width <- w
  end

(* One simplex phase: maximize the current objective from the current
   basic feasible point.  Pricing is Dantzig (most negative reduced cost)
   for speed, switching to Bland's rule after a budget of pivots so
   cycling cannot prevent termination.  Only constraint columns enter. *)
let run_phase tb =
  let dantzig_budget = ref (64 + (8 * tb.rows)) in
  let rec iterate () =
    let entering =
      if !dantzig_budget > 0 then begin
        decr dantzig_budget;
        let best = ref None in
        for j = tb.rows to tb.width - 1 do
          if R.sign tb.zrow.(j) < 0 then
            match !best with
            | Some (v, _) when R.compare tb.zrow.(j) v >= 0 -> ()
            | _ -> best := Some (tb.zrow.(j), j)
        done;
        Option.map snd !best
      end
      else begin
        (* Bland: smallest column index with negative reduced cost. *)
        let rec find j =
          if j >= tb.width then None
          else if R.sign tb.zrow.(j) < 0 then Some j
          else find (j + 1)
        in
        find tb.rows
      end
    in
    match entering with
    | None -> `Optimal
    | Some col -> (
        (* Ratio test; Bland tie-break on the leaving basis variable.  The
           ratio rhs_i / a_i is kept as the unreduced fraction
           (num rhs_i * den a_i) / (den rhs_i * num a_i), whose
           denominator is positive since a_i > 0, and ratios are compared
           by cross-multiplication: the same order as comparing the
           reduced rationals, without a gcd.  A pinned artificial (basic
           at zero) is a candidate at ratio 0 on any nonzero entry. *)
        let best = ref None in
        for i = 0 to tb.rows - 1 do
          let a = tb.t.(i).(col) in
          let rhs = tb.t.(i).(tb.width) in
          let candidate =
            if R.sign a > 0 then
              Some
                ( Bigint.mul (R.num rhs) (R.den a),
                  Bigint.mul (R.den rhs) (R.num a) )
            else if
              (not (R.is_zero a)) && tb.basis.(i) < tb.rows && R.is_zero rhs
            then Some (Bigint.zero, Bigint.one)
            else None
          in
          match (candidate, !best) with
          | None, _ -> ()
          | Some (n, d), None -> best := Some (n, d, i)
          | Some (n, d), Some (n', d', i') ->
              let cmp = Bigint.compare (Bigint.mul n d') (Bigint.mul n' d) in
              if cmp < 0 || (cmp = 0 && tb.basis.(i) < tb.basis.(i')) then
                best := Some (n, d, i)
        done;
        match !best with
        | None -> `Unbounded
        | Some (_, _, row) ->
            pivot tb ~row ~col;
            iterate ())
  in
  iterate ()

(* Phase 1 from the all-artificial basis; on success the tableau is left
   in phase 2 with its z-row built.  False when the dual is infeasible. *)
let phase1 tb =
  (match run_phase tb with
  | `Unbounded -> assert false (* the phase-1 objective is bounded by 0 *)
  | `Optimal -> ());
  let feasible = R.is_zero tb.zrow.(tb.width) in
  tb.in_phase1 <- false;
  make_zrow tb;
  feasible

(* The primal optimum x = -(s . pi), with pi in the phase-2 z-row's
   artificial entries (their phase-2 cost is zero). *)
let primal tb =
  Array.init tb.rows (fun k -> if tb.neg.(k) then tb.zrow.(k) else R.neg tb.zrow.(k))

(* Per-solve statistics are Debug-level diagnostics; the maxbits scan is
   quadratic in the tableau, so it only runs when a sink actually listens
   (the [Diag.event] thunk is not forced otherwise). *)
let solved_event tb ~phase1_pivots =
  Diag.event ~level:Diag.Debug "lp.solved" (fun () ->
      let maxbits = ref 0 in
      Array.iter
        (Array.iter (fun e ->
             maxbits :=
               Stdlib.max !maxbits
                 (Bigint.numbits (R.num e) + Bigint.numbits (R.den e))))
        tb.t;
      [
        ("rows", Diag.Int tb.rows);
        ("columns", Diag.Int (tb.width - tb.rows));
        ("pivots", Diag.Int tb.pivots);
        ("phase1_pivots", Diag.Int phase1_pivots);
        ("maxbits", Diag.Int !maxbits);
      ])

let maximize ~obj ~rows =
  let n = Array.length obj in
  Array.iter
    (fun (a, _) ->
      if Array.length a <> n then invalid_arg "Lp.maximize: row length")
    rows;
  let cols = Array.to_list (Array.mapi (fun j (a, b) -> (j, a, b)) rows) in
  let tb = create obj in
  add_columns tb cols;
  if phase1 tb then begin
    let phase1_pivots = tb.pivots in
    let result = run_phase tb in
    solved_event tb ~phase1_pivots;
    match result with
    | `Unbounded -> Infeasible (* dual unbounded: no primal point *)
    | `Optimal ->
        let x = primal tb in
        Optimal (x, dot obj x)
  end
  else begin
    (* The dual is infeasible, so the primal is infeasible or unbounded.
       Farkas settles which: the primal is infeasible iff some y >= 0 has
       A^T y = 0 and b . y = -1 — phase 1 of the dual with a zero
       right-hand side, plus that one normalising row. *)
    let farkas = create (Array.append (Array.make n R.zero) [| R.minus_one |]) in
    add_columns farkas
      (List.map (fun (j, a, b) -> (j, Array.append a [| b |], R.zero)) cols);
    if phase1 farkas then Infeasible else Unbounded
  end

(* ---------- RLibm interval systems ---------- *)

type point = { x : Rat.t; lo : Rat.t; hi : Rat.t }

type system_result = Sat of Rat.t array * int list | Unsat

let eval_poly ~powers coeffs x =
  let acc = ref R.zero in
  Array.iteri
    (fun k p -> acc := R.add !acc (R.mul coeffs.(k) (R.pow x p)))
    powers;
  !acc

(* Round a rational to [bits] significant bits (toward zero).  Monomials
   of double-precision reduced inputs have up to 53*degree-bit
   denominators; carrying them exactly through simplex pivots inflates
   tableau entries to thousands of bits.  Because the pipeline validates
   candidates by *empirical double evaluation* (and re-constrains on any
   miss), the LP may legally work with perturbed monomials — correctness
   never depends on them. *)
let round_bits q bits =
  if R.is_zero q then q
  else begin
    let m, e, _exact = R.approx q ~bits in
    R.mul_pow2 (R.of_bigint (if R.sign q < 0 then Bigint.neg m else m)) e
  end

(* How many violated points, most violated first, join the working set
   per round. *)
let max_added_per_round = 16

let solve_interval_system ?(initial_working = []) ?tilt ?mono_bits ~powers
    points =
  let d = Array.length powers in
  let n_points = Array.length points in
  if n_points = 0 then Sat (Array.make d R.zero, [])
  else begin
    let monos =
      Array.map
        (fun pt ->
          Array.map
            (fun p ->
              let m = R.pow pt.x p in
              match mono_bits with
              | None -> m
              | Some b -> round_bits m b)
            powers)
        points
    in
    (* Float shadows of the system: the per-round violation scan runs in
       doubles, with exact confirmation only for points near an interval
       boundary.  A point misclassified by less than the float margin is
       immaterial: the pipeline's acceptance criterion is the *double*
       evaluation of the compiled scheme, and false positives merely add a
       harmless constraint. *)
    let monos_f = Array.map (Array.map R.to_float) monos in
    let lo_f = Array.map (fun pt -> R.to_float pt.lo) points in
    let hi_f = Array.map (fun pt -> R.to_float pt.hi) points in
    (* value = round at which the constraint joined *)
    let working : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let seeds = ref [] (* the round-0 members, most recent first *) in
    let seed idx =
      if not (Hashtbl.mem working idx) then begin
        Hashtbl.replace working idx 0;
        seeds := idx :: !seeds
      end
    in
    List.iter
      (fun idx -> if idx >= 0 && idx < n_points then seed idx)
      initial_working;
    if Hashtbl.length working < d + 1 then begin
      (* Seed: spread evenly over the x-sorted points. *)
      let order = Array.init n_points (fun i -> i) in
      Array.sort (fun i j -> R.compare points.(i).x points.(j).x) order;
      let initial = Stdlib.min n_points (Stdlib.max (2 * (d + 1)) 8) in
      for k = 0 to initial - 1 do
        seed order.(k * (n_points - 1) / Stdlib.max 1 (initial - 1))
      done
    end;
    (* Each point is two primal rows over (coefficients, delta), delta
       being the minimum slack:  p(x) + delta <= hi  (column tag 2i) and
       -p(x) + delta <= -lo  (tag 2i + 1); one more row keeps delta >= 0. *)
    let lift v last = Array.init (d + 1) (fun k -> if k < d then v k else last) in
    let point_columns idx =
      let m = monos.(idx) in
      [
        (2 * idx, lift (fun k -> m.(k)) R.one, points.(idx).hi);
        (2 * idx + 1, lift (fun k -> R.neg m.(k)) R.one, R.neg points.(idx).lo);
      ]
    in
    let delta_nonneg = (-1, lift (fun _ -> R.zero) R.minus_one, R.zero) in
    (* Objective: maximize delta; an optional tiny tilt on the
       coefficients picks different near-optimal vertices, which the
       generation loop uses to search for candidates whose *double*
       evaluation satisfies constraints the vertex at pure max-delta
       misses. *)
    let obj_pure = lift (fun _ -> R.zero) R.one in
    let obj =
      match tilt with Some t -> lift (fun k -> t.(k)) R.one | None -> obj_pure
    in
    let start c =
      let tb = create c in
      add_columns tb
        (delta_nonneg :: List.concat_map point_columns (List.rev !seeds));
      (phase1 tb, tb)
    in
    (* Phase 1 runs once per solve.  When the tilted dual is infeasible on
       the seed columns — the tilt direction is unbounded there, or their
       rows admit no point — the solve falls back to the pure objective,
       whose dual is always feasible: one point's two columns at weight
       1/2 sum to (0, 1). *)
    let tb, phase1_pivots =
      match start obj with
      | true, tb -> (tb, tb.pivots)
      | false, tilted -> (
          match start obj_pure with
          | true, tb ->
              tb.pivots <- tb.pivots + tilted.pivots;
              (tb, tb.pivots)
          | false, _ -> assert false)
    in
    let eval_f coeffs_f idx =
      let m = monos_f.(idx) in
      let acc = ref 0.0 in
      for k = 0 to d - 1 do
        acc := !acc +. (coeffs_f.(k) *. m.(k))
      done;
      !acc
    in
    let exact_violation coeffs idx =
      let pt = points.(idx) in
      let v = dot coeffs monos.(idx) in
      let worst = R.max (R.sub pt.lo v) (R.sub v pt.hi) in
      if R.sign worst > 0 then Some (R.to_float worst) else None
    in
    (* Slack-constraint pruning keeps the tableau narrow.  Only points
       whose two columns are both nonbasic go, so the current basis — and
       with it dual feasibility — survives.  Each constraint may be pruned
       at most once (the ratchet below): without it the working set can
       cycle — prune A, vertex moves, A violated, re-add A, prune B,
       vertex moves back ... — and with it the classic monotone-growth
       termination argument still applies. *)
    let max_working = 4 * (d + 2) in
    let pruned_once : (int, unit) Hashtbl.t = Hashtbl.create 64 in
    let round_event round outcome violations =
      Diag.event ~level:Diag.Debug "lp.round" (fun () ->
          [
            ("round", Diag.Int round);
            ("outcome", Diag.String outcome);
            ("violations", Diag.Int violations);
            ("working", Diag.Int (Hashtbl.length working));
          ])
    in
    (* Column generation: phase 2 continues from the previous optimal
       basis after each batch of violated points joins. *)
    let rec loop round =
      let prune_allowed = round <= 40 in
      match run_phase tb with
      | `Unbounded ->
          (* Dual unbounded: no polynomial meets the working intervals,
             hence none meets them all. *)
          round_event round "infeasible" 0;
          Unsat
      | `Optimal ->
          let coeffs = Array.sub (primal tb) 0 d in
          let coeffs_f = Array.map R.to_float coeffs in
          (* Scan in floats; confirm suspects exactly. *)
          let violations = ref [] in
          for idx = 0 to n_points - 1 do
            if not (Hashtbl.mem working idx) then begin
              let v = eval_f coeffs_f idx in
              let scale =
                Float.max 1e-300
                  (Float.max (Float.abs v)
                     (Float.max (Float.abs lo_f.(idx)) (Float.abs hi_f.(idx))))
              in
              let tol = 1e-12 *. scale in
              let dist = Float.max (lo_f.(idx) -. v) (v -. hi_f.(idx)) in
              if dist > tol then violations := (dist, idx) :: !violations
              else if dist > -.tol then
                match exact_violation coeffs idx with
                | Some w -> violations := (w, idx) :: !violations
                | None -> ()
            end
          done;
          (match !violations with
          | [] ->
              Sat
                ( coeffs,
                  Array.fold_right
                    (fun id acc -> if id >= 0 && id land 1 = 0 then (id / 2) :: acc else acc)
                    tb.id [] )
          | vs ->
              let vs =
                List.sort (fun (a, _) (b, _) -> Float.compare b a) vs
              in
              let added = List.filteri (fun k _ -> k < max_added_per_round) vs in
              List.iter (fun (_, idx) -> Hashtbl.replace working idx round) added;
              add_columns tb (List.concat_map (fun (_, idx) -> point_columns idx) added);
              (* Prune stale constraints with visibly positive slack. *)
              if prune_allowed && Hashtbl.length working > max_working then begin
                let basic = Hashtbl.create 16 in
                Array.iter
                  (fun j -> if tb.id.(j) >= 0 then Hashtbl.replace basic (tb.id.(j) / 2) ())
                  tb.basis;
                let stale = ref [] in
                Hashtbl.iter
                  (fun idx joined ->
                    if
                      joined < round
                      && (not (Hashtbl.mem pruned_once idx))
                      && not (Hashtbl.mem basic idx)
                    then begin
                      let v = eval_f coeffs_f idx in
                      let scale =
                        Float.max 1e-300
                          (Float.max (Float.abs v)
                             (Float.max (Float.abs lo_f.(idx))
                                (Float.abs hi_f.(idx))))
                      in
                      let slack =
                        Float.min (v -. lo_f.(idx)) (hi_f.(idx) -. v)
                      in
                      if slack > 1e-9 *. scale then stale := idx :: !stale
                    end)
                  working;
                let excess = Hashtbl.length working - max_working in
                List.iteri
                  (fun i idx ->
                    if i < excess then begin
                      Hashtbl.remove working idx;
                      Hashtbl.replace pruned_once idx ()
                    end)
                  !stale;
                drop_columns tb (fun id ->
                    id >= 0 && not (Hashtbl.mem working (id / 2)))
              end;
              round_event round "violated" (List.length vs);
              loop (round + 1))
    in
    let result = loop 1 in
    solved_event tb ~phase1_pivots;
    result
  end
