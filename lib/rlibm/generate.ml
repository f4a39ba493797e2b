(* Algorithm 2 of the paper: the generate / adapt / validate / constrain
   loop, with the fast polynomial evaluation integrated *inside* the
   generation process.

   Per piece:

     1. solve the LP over the current (possibly shrunken) reduced
        intervals (RlibmLPSolve);
     2. round the exact rational coefficients to doubles and compile them
        for the requested evaluation scheme — for Knuth this performs the
        coefficient adaptation (AdaptCoeffsOrParallelFMA);
     3. evaluate the compiled scheme in real double arithmetic on every
        reduced input and compare against the reduced intervals;
     4. shrink the violated bound of each failing constraint by one double
        ulp (ConstrainInterval) and repeat; constraints whose interval
        empties become special-case inputs.

   The driver escalates the polynomial degree when a piece cannot be
   satisfied within the round/special budgets. *)

type piece_outcome =
  | Done of { compiled : Polyeval.compiled; specials : int64 list; rounds : int }
  | Scheme_na  (* the scheme cannot express this degree (Knuth outside 4-6) *)
  | Unsat of { lp_infeasible : bool }
      (* [lp_infeasible]: the LP rejected the *original* intervals (round
         1, nothing shrunk yet) — a hard fact about this degree, as
         opposed to the round/special budget running out. *)

let copy_points pts =
  Array.map
    (fun (p : Constraints.point) -> { p with Constraints.xs = p.xs })
    pts

let powers_of degree = Array.init (degree + 1) Fun.id

(* Round 1 of [solve_piece]: the LP over the piece's original intervals,
   with no warm-start working set and no objective tilt, before any
   scheme-specific validation.  A pure function of the points (read
   through their system [sys]) and the degree, shared by every scheme. *)
let round1 sys ~degree (points : Constraints.point array) =
  Lp.solve_system ~powers:(powers_of degree) sys
    ~idx:(Array.init (Array.length points) Fun.id)
    ~lo:(Array.map (fun (p : Constraints.point) -> p.lo) points)
    ~hi:(Array.map (fun (p : Constraints.point) -> p.hi) points)

let lp_system (points : Constraints.point array) =
  Lp.system (Array.map (fun (p : Constraints.point) -> p.r) points)

let first_round_lp ~degree points = round1 (lp_system points) ~degree points

(* Solve one piece at a fixed degree.

   Validation always runs against the *original* rounding intervals — the
   true requirement.  The shrunken copies only exist to pressure the LP
   into different vertices (ConstrainInterval).  A point whose working
   interval empties stops constraining the LP ("retires"), but candidates
   are still validated against its original interval, so a lucky candidate
   can rescue it from special-casing.

   Across rounds we remember the candidate violating the fewest *inputs*
   (not reduced points): when the round budget runs out, that candidate
   ships and its violated inputs become the special cases — this is how
   the artifact's generator "searches for a polynomial with the minimum
   number of special inputs".  Every LP reads [sys], the piece's system
   over [points]; [first_round compute] supplies round 1's LP result,
   where [compute ()] solves it. *)
let solve_piece ~first_round ~sys ~scheme ~degree ~max_rounds ~max_specials
    (points : Constraints.point array) =
  let n = Array.length points in
  let pts = copy_points points in
  let orig_lo = Array.map (fun (p : Constraints.point) -> p.lo) points in
  let orig_hi = Array.map (fun (p : Constraints.point) -> p.hi) points in
  (* Degenerate constraints (exactly representable results) cannot shrink;
     they stay in the LP and, when violated by the double evaluation, drive
     the neighbour perturbation below. *)
  let degenerate = Array.init n (fun i -> orig_lo.(i) = orig_hi.(i)) in
  let active = Array.make n true in
  (* [points] arrive sorted by reduced input, so neighbours are adjacent. *)
  let powers = powers_of degree in
  let inputs_of idxs =
    List.concat_map (fun i -> pts.(i).Constraints.xs) idxs
  in
  (* Warm-start bookkeeping: the LP reports working-set positions within
     the array it was handed; convert to and from global indices. *)
  let warm_global = ref [] in
  let best = ref None (* (violated-input count, compiled, violated idxs) *) in
  let stagnant = ref 0 in
  let na_rounds = ref 0 in
  (* Deterministic tilt source: vertex walking must be reproducible. *)
  let rng = Random.State.make [| 0x51bb; degree; n |] in
  let random_tilt () =
    let t =
      Array.init (degree + 1) (fun _ ->
          Rat.mul_pow2 (Rat.of_int (Random.State.int rng 65537 - 32768)) (-56))
    in
    (* Knuth's adaptation divides by the leading coefficient, so a vertex
       with a tiny one (common when a lower degree would already suffice)
       is numerically useless; bias the walk toward larger |c_d|. *)
    if scheme = Polyeval.Knuth then t.(degree) <- Rat.of_ints 1 64;
    t
  in
  (* Validate a compiled candidate against the original intervals: the
     per-round sweep over every reduced point runs the serving
     evaluator ([Polyeval.eval_into]) over the packed reduced inputs
     [rs], fanned out across the domain pool, into [vals].  Only
     immutable data is read ([rs] and the original interval arrays —
     never the working [lo]/[hi] fields, which the driver mutates
     between sweeps), chunks write disjoint slots of [vals], and the
     violated list is collected in ascending index order, so the result
     is identical at any job count.  A chunk below ~1k points is
     cheaper to sweep than to queue, so pieces under 2048 points run on
     the driver.  [vals] holds the values of the last candidate
     validated. *)
  let rs = Float.Array.init n (fun i -> pts.(i).Constraints.r) in
  let vals = Float.Array.create n in
  let eval_values (compiled : Polyeval.compiled) =
    Parallel.iter_chunks ~grain:1024 n (fun lo hi ->
        Polyeval.eval_into scheme compiled.Polyeval.data ~src:rs ~dst:vals ~lo
          ~hi)
  in
  let validate compiled =
    eval_values compiled;
    let violated = ref [] in
    for i = n - 1 downto 0 do
      let v = Float.Array.get vals i in
      if not (orig_lo.(i) <= v && v <= orig_hi.(i)) then
        violated := i :: !violated
    done;
    !violated
  in
  (* Ulp-level local search around an LP candidate: the LP fixes the
     rational feasible region, but whether the *double* evaluation of the
     compiled scheme lands inside every interval depends on last-ulp
     effects the LP cannot see.  Dithering each coefficient by a few ulps
     and re-validating (microseconds per trial) explores that space far
     faster than re-solving the LP — it is this reproduction's analogue of
     the artifact generator's hours-long search for a polynomial with the
     minimum number of special-case inputs. *)
  let dither coeffs0 seed_best =
    let best_local = ref seed_best in
    let coeffs = Array.copy coeffs0 in
    let trials = 400 in
    (try
       for _ = 1 to trials do
         Array.blit coeffs0 0 coeffs 0 (Array.length coeffs0);
         let k = 1 + Random.State.int rng (Array.length coeffs - 1) in
         for _ = 1 to k do
           let j = Random.State.int rng (Array.length coeffs) in
           let steps = 1 + Random.State.int rng 3 in
           let c = ref coeffs.(j) in
           for _ = 1 to steps do
             c := if Random.State.bool rng then Float.succ !c else Float.pred !c
           done;
           coeffs.(j) <- !c
         done;
         match Polyeval.compile scheme coeffs with
         | None -> ()
         | Some cand ->
             let violated = validate cand in
             let nv = List.length (inputs_of violated) in
             (match !best_local with
             | Some (bn, _, _) when bn <= nv -> ()
             | _ -> best_local := Some (nv, cand, violated));
             if nv = 0 then raise Exit
       done
     with Exit -> ());
    !best_local
  in
  let round_event round outcome violated =
    Diag.event ~level:Diag.Debug "gen.round" (fun () ->
        [
          ("degree", Diag.Int degree);
          ("round", Diag.Int round);
          ("outcome", Diag.String outcome);
          ("violated", Diag.Int violated);
        ])
  in
  let rec loop round =
    let finish ?(lp_infeasible = false) () =
      match !best with
      | Some (nv, compiled, violated) when nv <= max_specials ->
          Done { compiled; specials = inputs_of violated; rounds = round }
      | _ -> Unsat { lp_infeasible }
    in
    if round > max_rounds || !stagnant > 6 then finish ()
    else begin
      let act_idx =
        Array.of_list
          (List.filter (fun i -> active.(i)) (List.init n Fun.id))
      in
      let solve_round () =
        let pos_of_global = Hashtbl.create 64 in
        Array.iteri (fun pos g -> Hashtbl.replace pos_of_global g pos) act_idx;
        let initial_working =
          List.filter_map
            (fun g -> Hashtbl.find_opt pos_of_global g)
            !warm_global
        in
        Lp.solve_system ~initial_working ~tilt:(random_tilt ()) ~powers sys
          ~idx:act_idx
          ~lo:(Array.map (fun i -> pts.(i).Constraints.lo) act_idx)
          ~hi:(Array.map (fun i -> pts.(i).Constraints.hi) act_idx)
      in
      (* Round 1 has every point active and nothing shrunk yet, so
         act_idx is the identity and the caller's [first_round] stands
         in for the solve. *)
      match
        if round = 1 then first_round (fun () -> round1 sys ~degree points)
        else solve_round ()
      with
      | Lp.Unsat ->
          round_event round "infeasible" 0;
          finish ~lp_infeasible:(round = 1) ()
      | Lp.Sat (coeffs_rat, working) -> (
          warm_global := List.map (fun pos -> act_idx.(pos)) working;
          let coeffs = Array.map Rat.to_float coeffs_rat in
          match Polyeval.compile scheme coeffs with
          | None ->
              (* The scheme rejected these coefficients (e.g. Knuth with a
                 ~zero leading coefficient).  The tilt biases later rounds
                 toward usable vertices, so keep iterating for a while
                 before declaring the scheme inapplicable. *)
              incr na_rounds;
              if !na_rounds > 6 || (scheme = Polyeval.Knuth && (degree < 4 || degree > 6))
              then Scheme_na
              else loop (round + 1)
          | Some compiled -> (
              na_rounds := 0;
              (* Validate the actual double evaluation against the
                 original intervals, then dither around the candidate. *)
              let violated0 = validate compiled in
              let nv0 = List.length (inputs_of violated0) in
              match
                if nv0 = 0 then Some (0, compiled, [])
                else dither coeffs (Some (nv0, compiled, violated0))
              with
              | None -> assert false
              | Some (n_viol, compiled, violated) ->
              let violated = ref violated in
              (match !best with
              | Some (nv, _, _) when nv <= n_viol -> incr stagnant
              | _ ->
                  stagnant := 0;
                  best := Some (n_viol, compiled, !violated));
              if n_viol = 0 then Done { compiled; specials = []; rounds = round }
              else begin
                (* ConstrainInterval: shrink the violated side of the
                   *working* interval by one ulp of H.  Degenerate and
                   retired points cannot shrink themselves; instead we
                   shrink their nearest active neighbours in the direction
                   that pushes the polynomial toward the missed target, so
                   the LP keeps producing *different* candidates — this is
                   the cheap analogue of the artifact generator's long
                   search for a polynomial with minimal special cases. *)
                let shrink_toward i up =
                  (* Returns true if it actually shrank. *)
                  let p = pts.(i) in
                  if
                    active.(i)
                    && (not degenerate.(i))
                    && Float.succ p.Constraints.lo < p.Constraints.hi
                  then begin
                    if up then p.Constraints.lo <- Float.succ p.Constraints.lo
                    else p.Constraints.hi <- Float.pred p.Constraints.hi;
                    true
                  end
                  else false
                in
                let nudge_neighbours i up =
                  (* Walk outward from i over the (r-sorted) points. *)
                  let shrunk = ref 0 in
                  let radius = ref 1 in
                  while !shrunk < 4 && !radius < n do
                    if i - !radius >= 0 && shrink_toward (i - !radius) up then
                      incr shrunk;
                    if i + !radius < n && shrink_toward (i + !radius) up then
                      incr shrunk;
                    incr radius
                  done
                in
                (* Dithering leaves the last trial's values in [vals];
                   the directions come from the chosen candidate's. *)
                eval_values compiled;
                List.iter
                  (fun i ->
                    let p = pts.(i) in
                    let v = Float.Array.get vals i in
                    let up = Float.is_nan v || v < orig_lo.(i) in
                    if active.(i) && not degenerate.(i) then begin
                      if up then
                        p.Constraints.lo <- Float.succ p.Constraints.lo
                      else p.Constraints.hi <- Float.pred p.Constraints.hi;
                      if p.Constraints.lo > p.Constraints.hi then
                        active.(i) <- false
                    end
                    else nudge_neighbours i up)
                  !violated;
                round_event round "violated" n_viol;
                loop (round + 1)
              end))
    end
  in
  loop 1

type generated = {
  cfg : Config.t;
  family : Reduction.t;
  decode : Reduction.decoder;  (* the batch kernel's decode of cfg.tin *)
  scheme : Polyeval.scheme;
  pieces : Polyeval.compiled array;  (* the C kernel reads them in place *)
  specials : (int64, float) Hashtbl.t;  (* for the benchmark only *)
  spec_keys : int array;  (* the special inputs, sorted by bit pattern… *)
  spec_vals : float array;  (* …and their results *)
  degrees : int array;  (* per piece *)
  rounds : int array;  (* per piece *)
  n_constraints : int array;  (* per piece *)
}

let n_specials g = Array.length g.spec_keys

(* Closure-free product of the LP/adapt/validate/constrain loop: what the
   staged pipeline persists for the polynomial stage.  [sv_data] holds
   each piece's *compiled* constants (Polyeval.compiled.data — adapted
   ones for Knuth); Polyeval.of_data rebuilds bit-identical evaluators. *)
type solved = {
  sv_data : float array array;  (* per piece *)
  sv_degrees : int array;
  sv_rounds : int array;
  sv_n_constraints : int array;
  sv_specials : (int64 * float) list;  (* in discovery order *)
}

(* Pure stage body: solve every piece over an already-built constraint
   set.  All randomness (vertex tilt, dither) is seeded per piece and
   degree, so the result is a deterministic function of the inputs. *)
let solve ?(first_round = fun ~piece:_ ~degree:_ compute -> compute ())
    ~(cfg : Config.t) ~scheme ~func
    ~(built : Constraints.build_result) ~(oracle : (int64, int64) Hashtbl.t)
    () =
  let tin = cfg.tin and tout = Config.tout cfg in
  let decoded_result x =
    (* The oracle table normally covers every special input; recompute on
       a miss (same value) so a partially resumed table stays safe. *)
    let y =
      match Hashtbl.find_opt oracle x with
      | Some y -> y
      | None ->
          Oracle.correctly_round func (Softfp.to_rat tin x) ~fmt:tout
            ~mode:Softfp.RTO
    in
    Softfp.to_float tout y
  in
  let pieces = Array.length built.points in
  let data = Array.make pieces [||] in
  let degrees = Array.make pieces 0 in
  let rounds = Array.make pieces 0 in
  let n_constraints = Array.map Array.length built.points in
  let specials = ref (List.rev built.immediate_specials) in
  let failure = ref None in
  for pi = 0 to pieces - 1 do
    if !failure = None then begin
      let pts = built.points.(pi) in
      if Array.length pts = 0 then begin
        (match Polyeval.compile scheme [| 0.0 |] with
        | Some c -> data.(pi) <- c.Polyeval.data
        | None -> data.(pi) <- [| 0.0 |]);
        degrees.(pi) <- 0
      end
      else begin
        (* One LP system per piece, for every round and degree. *)
        let sys = lp_system pts in
        (* Degree escalation; Knuth only exists for 4-6, so start there. *)
        let d0 =
          match scheme with
          | Polyeval.Knuth -> Stdlib.max cfg.min_degree 4
          | _ -> cfg.min_degree
        in
        let rec try_degree ~last_lp d =
          if d > cfg.max_degree then
            failure :=
              Some
                (if last_lp then
                   Diag.Error.Lp_infeasible
                     {
                       func = Oracle.name func;
                       scheme = Polyeval.scheme_name scheme;
                       piece = pi;
                       degree = cfg.max_degree;
                     }
                 else
                   Diag.Error.Budget_exhausted
                     {
                       func = Oracle.name func;
                       scheme = Polyeval.scheme_name scheme;
                       piece = pi;
                       max_degree = cfg.max_degree;
                     })
          else begin
            Diag.event "gen.degree" (fun () ->
                [
                  ("func", Diag.String (Oracle.name func));
                  ("scheme", Diag.String (Polyeval.scheme_name scheme));
                  ("piece", Diag.Int pi);
                  ("degree", Diag.Int d);
                  ("constraints", Diag.Int (Array.length pts));
                ]);
            match
              solve_piece ~first_round:(first_round ~piece:pi ~degree:d) ~sys
                ~scheme ~degree:d ~max_rounds:cfg.max_rounds
                ~max_specials:cfg.max_specials pts
            with
            | Done { compiled = c; specials = sp; rounds = r } ->
                data.(pi) <- c.Polyeval.data;
                degrees.(pi) <- d;
                rounds.(pi) <- r;
                List.iter
                  (fun x -> specials := (x, decoded_result x) :: !specials)
                  sp
            | Scheme_na -> try_degree ~last_lp:false (d + 1)
            | Unsat { lp_infeasible } -> try_degree ~last_lp:lp_infeasible (d + 1)
          end
        in
        try_degree ~last_lp:false d0
      end
    end
  done;
  match !failure with
  | Some err -> Error err
  | None ->
      Ok
        {
          sv_data = data;
          sv_degrees = degrees;
          sv_rounds = rounds;
          sv_n_constraints = n_constraints;
          sv_specials = List.rev !specials;
        }

let family ?table ~(cfg : Config.t) func =
  let tin = cfg.tin in
  if not (Softfp.fits_double tin) then
    invalid_arg
      (Printf.sprintf
         "Generate.family: ebits %d, prec %d: input values are not all doubles"
         tin.Softfp.ebits tin.Softfp.prec);
  Reduction.make ?table func ~out_fmt:(Config.tout cfg) ~pieces:cfg.pieces
    ~table_bits:cfg.table_bits

(* Rebuild the runnable implementation from the closure-free artifact:
   recompile each piece's constants and rebuild the range reduction. *)
let assemble ?table ~(cfg : Config.t) ~scheme ~func (sv : solved) =
  let family = family ?table ~cfg func in
  (* The batch kernel takes the piece count from the pieces; the range
     reduction splits the domain into cfg.pieces. *)
  if Array.length sv.sv_data <> cfg.pieces then
    invalid_arg
      (Printf.sprintf "Generate.assemble: data for %d pieces, %d configured"
         (Array.length sv.sv_data) cfg.pieces);
  let pieces =
    Array.map
      (fun d ->
        match Polyeval.of_data scheme d with
        | Some c -> c
        | None ->
            invalid_arg
              (Printf.sprintf "Generate.assemble: stale %s piece data"
                 (Polyeval.scheme_name scheme)))
      sv.sv_data
  in
  let specials = Hashtbl.create 16 in
  List.iter (fun (x, v) -> Hashtbl.replace specials x v) sv.sv_specials;
  (* The special table as sorted arrays, which the batch kernel probes
     by binary search and Genlibm.eval_bits scans.  Patterns occupy the
     low <= 63 bits of the int64 (a Softfp.make_fmt invariant), so a
     native-int key array gives unboxed comparisons.  Built from the
     Hashtbl, not the discovery-order list, so duplicate discoveries
     collapse exactly as its replace semantics dictate. *)
  let spec_pairs =
    Hashtbl.fold (fun x v acc -> (Int64.to_int x, v) :: acc) specials []
    |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
    |> Array.of_list
  in
  let spec_keys = Array.map fst spec_pairs in
  let spec_vals = Array.map snd spec_pairs in
  {
    cfg;
    family;
    decode = Reduction.decoder cfg.tin;
    scheme;
    pieces;
    specials;
    spec_keys;
    spec_vals;
    degrees = sv.sv_degrees;
    rounds = sv.sv_rounds;
    n_constraints = sv.sv_n_constraints;
  }
