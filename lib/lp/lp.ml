(* Exact two-phase primal simplex over rationals, plus the RLibm-style
   constraint-generation driver for interval systems. *)

module R = Rat

type status = Optimal of Rat.t array * Rat.t | Infeasible | Unbounded

(* ---------- dense tableau simplex ----------

   Standard form used internally:

     max  c . y      s.t.  T y = rhs,  y >= 0

   Free problem variables are split as y = x+ - x-.  Each inequality gets a
   slack; rows with negative rhs are negated and get an artificial for
   phase 1.  Bland's rule on both the entering and leaving choices makes
   cycling impossible, so the solver always terminates.

   [width] is the total number of structural columns (the rhs lives at
   index [width]); [scan] limits which columns may enter the basis — after
   phase 1 it excludes the artificial columns so they can never return. *)

type tableau = {
  width : int;
  mutable scan : int;
  rows : int;
  t : R.t array array; (* rows x (width + 1) *)
  basis : int array;   (* basis.(i) = column basic in row i *)
}

(* Pivot the constraint rows and the maintained objective (z) row.  Only
   the pivot row's nonzero columns are touched: a zero entry stays zero
   under normalisation, and t_ij - f*0 = t_ij leaves every other row's
   entry in that column as it was.  The tableau is exactly the one a
   dense pivot produces, so every later pivot choice is unchanged. *)
let pivot tb zrow ~row ~col =
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
  eliminate zrow;
  tb.basis.(row) <- col

(* Build the z-row (reduced costs, z_j - c_j) for objective [c]: one
   O(rows * width) pass per phase; pivots keep it current afterwards. *)
let make_zrow tb c =
  let zrow = Array.make (tb.width + 1) R.zero in
  for j = 0 to tb.width do
    let z = ref R.zero in
    for i = 0 to tb.rows - 1 do
      let cb = c.(tb.basis.(i)) in
      if not (R.is_zero cb) then z := R.add !z (R.mul cb tb.t.(i).(j))
    done;
    zrow.(j) <- (if j = tb.width then !z else R.sub !z c.(j))
  done;
  zrow

let pivot_count = ref 0

(* One simplex phase: maximize c.y from the current basic feasible point.
   Pricing is Dantzig (most negative reduced cost) for speed, switching to
   Bland's rule after a budget of pivots so cycling cannot prevent
   termination. *)
let run_phase tb zrow =
  let dantzig_budget = ref (64 + (8 * tb.rows)) in
  let rec iterate () =
    let entering =
      if !dantzig_budget > 0 then begin
        decr dantzig_budget;
        let best = ref None in
        for j = 0 to tb.scan - 1 do
          if R.sign zrow.(j) < 0 then
            match !best with
            | Some (v, _) when R.compare zrow.(j) v >= 0 -> ()
            | _ -> best := Some (zrow.(j), j)
        done;
        Option.map snd !best
      end
      else begin
        (* Bland: smallest column index with negative reduced cost. *)
        let rec find j =
          if j >= tb.scan then None
          else if R.sign zrow.(j) < 0 then Some j
          else find (j + 1)
        in
        find 0
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
           reduced rationals, without a gcd. *)
        let best = ref None in
        for i = 0 to tb.rows - 1 do
          let a = tb.t.(i).(col) in
          if R.sign a > 0 then begin
            let rhs = tb.t.(i).(tb.width) in
            let n = Bigint.mul (R.num rhs) (R.den a)
            and d = Bigint.mul (R.den rhs) (R.num a) in
            match !best with
            | None -> best := Some (n, d, i)
            | Some (n', d', i') ->
                let cmp = Bigint.compare (Bigint.mul n d') (Bigint.mul n' d) in
                if cmp < 0 || (cmp = 0 && tb.basis.(i) < tb.basis.(i')) then
                  best := Some (n, d, i)
          end
        done;
        match !best with
        | None -> `Unbounded
        | Some (_, _, row) ->
            incr pivot_count;
            pivot tb zrow ~row ~col;
            iterate ())
  in
  iterate ()

let objective_value tb c =
  let v = ref R.zero in
  for i = 0 to tb.rows - 1 do
    let cb = c.(tb.basis.(i)) in
    if not (R.is_zero cb) then v := R.add !v (R.mul cb tb.t.(i).(tb.width))
  done;
  !v

let maximize ~obj ~rows =
  let n = Array.length obj in
  let m = Array.length rows in
  Array.iter
    (fun (a, _) ->
      if Array.length a <> n then invalid_arg "Lp.maximize: row length")
    rows;
  let neg_rows =
    Array.fold_left (fun acc (_, b) -> if R.sign b < 0 then acc + 1 else acc) 0 rows
  in
  let real_cols = (2 * n) + m in
  let width = real_cols + neg_rows in
  let t = Array.make_matrix m (width + 1) R.zero in
  let basis = Array.make m 0 in
  let art_idx = ref real_cols in
  Array.iteri
    (fun i (a, b) ->
      let negate = R.sign b < 0 in
      let put j v = t.(i).(j) <- (if negate then R.neg v else v) in
      for k = 0 to n - 1 do
        put k a.(k);
        put (n + k) (R.neg a.(k))
      done;
      put ((2 * n) + i) R.one;
      t.(i).(width) <- (if negate then R.neg b else b);
      if negate then begin
        t.(i).(!art_idx) <- R.one;
        basis.(i) <- !art_idx;
        incr art_idx
      end
      else basis.(i) <- (2 * n) + i)
    rows;
  let tb = { width; scan = width; rows = m; t; basis } in
  (* Phase 1: maximize -(sum of artificials). *)
  let phase1 =
    if neg_rows = 0 then `Feasible
    else begin
      let c1 = Array.make width R.zero in
      for j = real_cols to width - 1 do
        c1.(j) <- R.minus_one
      done;
      match run_phase tb (make_zrow tb c1) with
      | `Unbounded -> assert false (* phase-1 objective is bounded by 0 *)
      | `Optimal ->
          if R.sign (objective_value tb c1) < 0 then `Infeasible
          else begin
            (* Try to drive basic artificials (all at value zero) out; a row
               where that is impossible is redundant and stays harmlessly. *)
            for i = 0 to m - 1 do
              if tb.basis.(i) >= real_cols then begin
                let rec find j =
                  if j >= real_cols then None
                  else if not (R.is_zero tb.t.(i).(j)) then Some j
                  else find (j + 1)
                in
                match find 0 with
                | Some col ->
                    (* The z-row is rebuilt for phase 2; a throwaway one
                       keeps the pivot uniform here. *)
                    pivot tb (Array.make (tb.width + 1) R.zero) ~row:i ~col
                | None -> ()
              end
            done;
            `Feasible
          end
    end
  in
  match phase1 with
  | `Infeasible -> Infeasible
  | `Feasible -> (
      (* Phase 2: artificial columns are frozen out of the entering scan. *)
      tb.scan <- real_cols;
      let c2 = Array.make width R.zero in
      for k = 0 to n - 1 do
        c2.(k) <- obj.(k);
        c2.(n + k) <- R.neg obj.(k)
      done;
      match run_phase tb (make_zrow tb c2) with
      | `Unbounded -> Unbounded
      | `Optimal ->
          (* Tableau statistics are Debug-level diagnostics; the maxbits
             scan is quadratic in the tableau, so it only runs when a
             sink actually listens (the [Diag.event] thunk is not forced
             otherwise). *)
          Diag.event ~level:Diag.Debug "lp.solved" (fun () ->
              let maxbits = ref 0 in
              Array.iter
                (Array.iter (fun e ->
                     maxbits :=
                       Stdlib.max !maxbits
                         (Bigint.numbits (R.num e) + Bigint.numbits (R.den e))))
                t;
              [
                ("rows", Diag.Int m);
                ("pivots_cum", Diag.Int !pivot_count);
                ("maxbits", Diag.Int !maxbits);
              ]);
          let y = Array.make width R.zero in
          for i = 0 to m - 1 do
            y.(tb.basis.(i)) <- t.(i).(width)
          done;
          let x = Array.init n (fun k -> R.sub y.(k) y.(n + k)) in
          Optimal (x, objective_value tb c2))

(* ---------- RLibm interval systems ---------- *)

type point = { x : Rat.t; lo : Rat.t; hi : Rat.t }

type system_result = Sat of Rat.t array * int list | Unsat

let eval_poly ~powers coeffs x =
  let acc = ref R.zero in
  Array.iteri
    (fun k p -> acc := R.add !acc (R.mul coeffs.(k) (R.pow x p)))
    powers;
  !acc

(* Horner over precomputed monomials: the violation scan is the hot loop
   when the pipeline re-solves after every interval shrink. *)
let eval_monos monos coeffs =
  let acc = ref R.zero in
  Array.iteri (fun k m -> acc := R.add !acc (R.mul coeffs.(k) m)) monos;
  !acc

(* Two LP rows per point, with the min-slack variable delta appended:
   p(x) + delta <= hi   and   -p(x) + delta <= -lo. *)
let rows_of_point ~mono pt =
  let d = Array.length mono in
  let upper = Array.init (d + 1) (fun k -> if k < d then mono.(k) else R.one) in
  let lower =
    Array.init (d + 1) (fun k -> if k < d then R.neg mono.(k) else R.one)
  in
  [ (upper, pt.hi); (lower, R.neg pt.lo) ]

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

let solve_interval_system ?(max_added_per_round = 16) ?(initial_working = [])
    ?tilt ?mono_bits ~powers points =
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
    let working : (int, int) Hashtbl.t = Hashtbl.create 64 in
    (* value = round at which the constraint joined *)
    List.iter
      (fun idx -> if idx >= 0 && idx < n_points then Hashtbl.replace working idx 0)
      initial_working;
    if Hashtbl.length working < d + 1 then begin
      (* Seed: spread evenly over the x-sorted points. *)
      let order = Array.init n_points (fun i -> i) in
      Array.sort (fun i j -> R.compare points.(i).x points.(j).x) order;
      let initial = Stdlib.min n_points (Stdlib.max (2 * (d + 1)) 8) in
      for k = 0 to initial - 1 do
        let idx = order.(k * (n_points - 1) / Stdlib.max 1 (initial - 1)) in
        Hashtbl.replace working idx 0
      done
    end;
    (* Objective: maximize delta, the minimum slack; an optional tiny tilt
       on the coefficients picks different near-optimal vertices, which the
       generation loop uses to search for candidates whose *double*
       evaluation satisfies constraints the vertex at pure max-delta
       misses. *)
    let obj =
      Array.init (d + 1) (fun k ->
          if k = d then R.one
          else match tilt with Some t -> t.(k) | None -> R.zero)
    in
    let obj_pure = Array.init (d + 1) (fun k -> if k < d then R.zero else R.one) in
    let delta_nonneg =
      ( Array.init (d + 1) (fun k -> if k < d then R.zero else R.minus_one),
        R.zero )
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
      let v = eval_monos monos.(idx) coeffs in
      let worst = R.max (R.sub pt.lo v) (R.sub v pt.hi) in
      if R.sign worst > 0 then Some (R.to_float worst) else None
    in
    (* Slack-constraint pruning keeps the exact tableau small.  Each
       constraint may be pruned at most once (the ratchet below): without
       it the working set can cycle — prune A, vertex moves, A violated,
       re-add A, prune B, vertex moves back ... — and with it the classic
       monotone-growth termination argument still applies. *)
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
    let rec loop round =
      let prune_allowed = round <= 40 in
      let rows =
        Hashtbl.fold
          (fun idx _ acc -> rows_of_point ~mono:monos.(idx) points.(idx) @ acc)
          working [ delta_nonneg ]
        |> Array.of_list
      in
      let solved =
        match maximize ~obj ~rows with
        | Unbounded when tilt <> None ->
            (* The tilt direction is unbounded on this working subset;
               fall back to the pure objective for this round. *)
            maximize ~obj:obj_pure ~rows
        | r -> r
      in
      match solved with
      | Infeasible ->
          round_event round "infeasible" 0;
          Unsat
      | Unbounded ->
          (* Cannot happen: delta is bounded by the narrowest interval. *)
          assert false
      | Optimal (sol, _delta) ->
          let coeffs = Array.sub sol 0 d in
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
              Sat (coeffs, Hashtbl.fold (fun i _ acc -> i :: acc) working [])
          | vs ->
              let vs =
                List.sort (fun (a, _) (b, _) -> Float.compare b a) vs
              in
              let rec take k = function
                | (_, idx) :: rest when k > 0 ->
                    Hashtbl.replace working idx round;
                    take (k - 1) rest
                | _ -> ()
              in
              take max_added_per_round vs;
              (* Prune stale constraints with visibly positive slack. *)
              if prune_allowed && Hashtbl.length working > max_working then begin
                let stale = ref [] in
                Hashtbl.iter
                  (fun idx joined ->
                    if joined < round && not (Hashtbl.mem pruned_once idx) then begin
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
                  !stale
              end;
              round_event round "violated" (List.length vs);
              loop (round + 1))
    in
    loop 1
  end
