(* Constraint construction: CalcRndIntervals + CalcRedIntervals +
   CombineRedIntervals of the RLibm pipeline (Figure 1 / Section 2).

   For every covered input x we obtain the oracle's round-to-odd result in
   the widened target, turn it into a rounding interval in H = binary64
   (Intervals), pull the interval back through the inverse of the output
   compensation, repair the boundaries against the *actual* double OC
   (AdjHigher/AdjLower of CalculateL'), and merge constraints that share a
   reduced input (CalculatePhi). *)

type point = {
  r : float;
  piece : int;
  mutable lo : float;
  mutable hi : float;
  mutable xs : int64 list;  (* input patterns merged into this constraint *)
}

type build_result = {
  points : point array array;  (* indexed by piece *)
  immediate_specials : (int64 * float) list;
      (* inputs whose constraint could not be expressed; the stored result
         is the decoded oracle value, which always lies in the rounding
         interval *)
}

(* The exact inverse of the idealized output compensation: q / 2^n, q - c. *)
type inverse = Scale of int | Shift of float

let inverse (family : Reduction.t) (s : Reduction.scratch) =
  match family.kernel with
  | Reduction.Exp_kernel _ -> Scale s.sn
  | Reduction.Log_kernel _ -> Shift s.sf.sc

(* Exact directed rounding of the inverse; see constraints.mli. *)
let pull inv ~up q =
  match inv with
  | Scale n ->
      let r = Float.ldexp q (-n) in
      let back = Float.ldexp r n in
      if back = q then r +. 0.0
      else if up then if back < q then Float.succ r else r
      else if back > q then Float.pred r
      else r
  | Shift c ->
      let s = q -. c in
      if Float.is_finite s then
        (* TwoSum: e = (q - c) - s exactly. *)
        let bb = s -. q in
        let e = (q -. (s -. bb)) -. (c +. bb) in
        if up && e > 0.0 then Float.succ s
        else if (not up) && e < 0.0 then Float.pred s
        else s +. 0.0
      else if up = (s > 0.0) then s
      else Float.copy_sign Float.max_float s

(* Pull [iv] back through the output compensation: exact inverse first,
   then nudge the double endpoints until the real OC maps them inside the
   target interval.  Returns None when no double survives. *)
let reduced_interval ~oc ~inv (iv : Intervals.t) =
  let inside v = iv.Intervals.lo <= v && v <= iv.Intervals.hi in
  let g_lo = ref (pull inv ~up:true iv.Intervals.lo) in
  let g_hi = ref (pull inv ~up:false iv.Intervals.hi) in
  (* Each direction gets its own nudge budget: with a single shared
     budget a hard lower boundary drains it before the upper fix-up runs,
     misclassifying a recoverable constraint as infeasible. *)
  let budget_lo = ref 256 in
  while !budget_lo > 0 && !g_lo <= !g_hi && not (inside (oc !g_lo)) do
    g_lo := Float.succ !g_lo;
    decr budget_lo
  done;
  let budget_hi = ref 256 in
  while !budget_hi > 0 && !g_lo <= !g_hi && not (inside (oc !g_hi)) do
    g_hi := Float.pred !g_hi;
    decr budget_hi
  done;
  if !g_lo <= !g_hi && inside (oc !g_lo) && inside (oc !g_hi)
  then Some (!g_lo, !g_hi)
  else None

(* The oracle results are the expensive part of generation and depend only
   on (function, input format, target format) — share them across the five
   evaluation schemes, and persist them through the hardened {!Cache}
   store (the moral equivalent of the artifact's pre-generated oracle
   files) so repeated runs of the tests, benchmarks and examples do not
   re-pay the Ziv loops.  Set RLIBM_NO_DISK_CACHE to disable persistence,
   RLIBM_CACHE_DIR to relocate it.  The pipeline's oracle stage is the
   only writer of these tables and publishes them; everything downstream
   only reads them. *)
let oracle_cache : (string, (int64, int64) Hashtbl.t) Hashtbl.t =
  Hashtbl.create 8

(* Layout version of the marshalled oracle table.  Part of the store key:
   bumping it makes every older entry unreachable (regenerated, never
   trusted), which is how payload-type drift is kept away from Marshal. *)
let store_version = 1

let oracle_cache_key ~func ~(tin : Softfp.fmt) ~(tout : Softfp.fmt) =
  (* The table depends on the *full* identity of both formats.  The old
     key ("%s-%d-%d-%d") omitted tout.ebits, so two target formats with
     equal precision but different exponent ranges silently shared one
     table; old-format file names are never generated, so un-versioned
     entries are simply ignored. *)
  Printf.sprintf "%s-in%d.%d-out%d.%d-v%d" (Oracle.name func)
    tin.Softfp.ebits tin.Softfp.prec tout.Softfp.ebits tout.Softfp.prec
    store_version

let clear_memory_cache () = Hashtbl.reset oracle_cache

let oracle_table ~func ~(tin : Softfp.fmt) ~(tout : Softfp.fmt) =
  let key = oracle_cache_key ~func ~tin ~tout in
  match Hashtbl.find_opt oracle_cache key with
  | Some t -> t
  | None ->
      let t =
        match
          (Cache.load ~kind:"oracle" ~key
            : ((int64, int64) Hashtbl.t option, Diag.Error.t) result)
        with
        | Ok (Some t) -> t
        | Ok None | Error _ ->
            (* Corrupt entries are quarantined by the store; an empty
               table just means every range recomputes, so the oracle
               layer self-heals rather than failing the stage. *)
            Hashtbl.create 4096
      in
      Hashtbl.replace oracle_cache key t;
      t

(* ---------- stage bodies ----------

   Three separate pure bodies: the oracle evaluations, the
   rounding-interval construction, and the pull-back/CalculatePhi merge.
   The staged pipeline (lib/pipeline) persists the first and the
   composition of the other two; sampled generation
   (Genlibm.generate_sampled) composes all three over a table it owns. *)

(* The fields of one [oracle.ziv] event: how many of a range's oracle
   evaluations each tier decided — the fast first tier, the analytic
   cases, and the dyadic Ziv loop per working precision (the
   fallbacks). *)
let tier_fields func fresh =
  let fast = ref 0 and analytic = ref 0 and inputs = ref 0 in
  let ziv = Hashtbl.create 4 in
  Array.iter
    (function
      | None -> ()
      | Some (_, _, tier) -> (
          incr inputs;
          match (tier : Oracle.tier) with
          | Fast -> incr fast
          | Exact | Range_shortcut -> incr analytic
          | Ziv _ ->
              Hashtbl.replace ziv tier
                (1 + Option.value ~default:0 (Hashtbl.find_opt ziv tier))))
    fresh;
  let levels =
    List.sort compare (Hashtbl.fold (fun t n l -> (t, n) :: l) ziv [])
  in
  [
    ("func", Diag.String (Oracle.name func));
    ("inputs", Diag.Int !inputs);
    ("fast", Diag.Int !fast);
    ("analytic", Diag.Int !analytic);
    ("fallbacks", Diag.Int (List.fold_left (fun n (_, k) -> n + k) 0 levels));
  ]
  @ List.map (fun (t, n) -> (Oracle.tier_name t, Diag.Int n)) levels

(* Stage body 1: the round-to-odd result of every finite, non-shortcut
   input of [inputs.(lo .. hi-1)], as (input, result) pairs in input
   order.  The Ziv loops fan out across the domain pool; the pair list is
   assembled on the driver, so the result is bit-identical at every job
   count.  The output is a pure function of (func, tin, tout, range) —
   which is what makes a range a content-keyable shard artifact
   (lib/pipeline's oracle shards).  The tier that decided each result is
   counted into one oracle.ziv event; it never reaches the artifact. *)
let oracle_range ~(cfg : Config.t) ~(family : Reduction.t)
    ~(inputs : int64 array) ~lo ~hi =
  let tin = cfg.tin and tout = Config.tout cfg in
  let slice = Array.sub inputs lo (Stdlib.max 0 (hi - lo)) in
  let fresh =
    Parallel.map_array
      (fun x ->
        if not (Softfp.is_finite tin x) then None
        else
          let xf = Softfp.to_float tin x in
          match family.shortcut xf with
          | Some _ -> None (* analytic fast path; checked during verification *)
          | None ->
              let r = Oracle.make_rounder family.func (Softfp.to_rat tin x) in
              let y, tier = Oracle.decide r ~fmt:tout ~mode:Softfp.RTO in
              Some (x, y, tier))
      slice
  in
  let pairs = ref [] in
  for i = Array.length fresh - 1 downto 0 do
    match fresh.(i) with
    | None -> ()
    | Some (x, y, _) -> pairs := (x, y) :: !pairs
  done;
  let pairs = Array.of_list !pairs in
  if Array.length pairs > 0 then
    Diag.event "oracle.ziv" (fun () -> tier_fields family.func fresh);
  pairs

(* One covered input's rounding interval: the round-to-odd oracle result
   and the target interval it induces in H = binary64. *)
type rounding_interval = {
  ri_x : int64;
  ri_y : int64;
  ri_lo : float;
  ri_hi : float;
}

(* Stage body 2: CalcRndIntervals.  One entry per finite, non-shortcut
   input, in input order.  Derived entirely from the oracle table (which
   must cover the inputs — install [oracle_range]'s pairs first), so it
   depends only on (func, tin, tout).  Cheap and native: the constraints
   stage recomputes it rather than storing it. *)
let rounding_intervals ~(cfg : Config.t) ~(family : Reduction.t)
    ~(inputs : int64 array) ~(oracle : (int64, int64) Hashtbl.t) =
  let tin = cfg.tin and tout = Config.tout cfg in
  let acc = ref [] in
  Array.iter
    (fun x ->
      if Softfp.is_finite tin x && family.shortcut (Softfp.to_float tin x) = None
      then begin
        let y = Hashtbl.find oracle x in
        let iv = Intervals.of_round_to_odd tout y in
        acc :=
          { ri_x = x; ri_y = y; ri_lo = iv.Intervals.lo; ri_hi = iv.Intervals.hi }
          :: !acc
      end)
    inputs;
  Array.of_list (List.rev !acc)

(* Per-entry outcome of the parallel pull-back phase of [combine]. *)
type prepared =
  | P_special  (* constraint not expressible *)
  | P_point of { piece : int; r : float; lo : float; hi : float }

(* Stage body 3: CalcRedIntervals + CombineRedIntervals.  The pull-back
   through the inverse output compensation fans out across the domain
   pool; the CalculatePhi merge runs on the driver in entry order (the
   merge order is part of the output: an empty intersection demotes the
   *newest* input), so the result is bit-identical for every job count. *)
let combine ~(cfg : Config.t) ~(family : Reduction.t)
    ~(rivals : rounding_interval array) =
  let tin = cfg.tin and tout = Config.tout cfg in
  let table : (int * int64, point) Hashtbl.t =
    Hashtbl.create (Array.length rivals)
  in
  let prep =
    Parallel.map_array
      (fun ri ->
        let s = Reduction.scratch () in
        s.sf.sx <- Softfp.to_float tin ri.ri_x;
        family.reduce_into s;
        let iv = { Intervals.lo = ri.ri_lo; hi = ri.ri_hi } in
        match
          reduced_interval ~oc:(Reduction.compensate family s)
            ~inv:(inverse family s) iv
        with
        | None -> P_special
        | Some (lo, hi) -> P_point { piece = s.spiece; r = s.sf.sr; lo; hi })
      rivals
  in
  let specials = ref [] in
  Array.iteri
    (fun i ri ->
      let x = ri.ri_x in
      match prep.(i) with
      | P_special -> specials := (x, Softfp.to_float tout ri.ri_y) :: !specials
      | P_point { piece; r; lo; hi } -> (
          let key = (piece, Int64.bits_of_float r) in
          match Hashtbl.find_opt table key with
          | None -> Hashtbl.replace table key { r; piece; lo; hi; xs = [ x ] }
          | Some pt ->
              (* CalculatePhi: intersect intervals sharing a reduced
                 input; an empty intersection demotes the newcomer to
                 a special case. *)
              let nlo = Float.max pt.lo lo and nhi = Float.min pt.hi hi in
              if nlo <= nhi then begin
                pt.lo <- nlo;
                pt.hi <- nhi;
                pt.xs <- x :: pt.xs
              end
              else specials := (x, Softfp.to_float tout ri.ri_y) :: !specials))
    rivals;
  let points = Array.make family.pieces [] in
  Hashtbl.iter
    (fun _ pt -> points.(pt.piece) <- pt :: points.(pt.piece))
    table;
  let points =
    Array.map
      (fun l ->
        let a = Array.of_list l in
        Array.sort (fun a b -> Float.compare a.r b.r) a;
        a)
      points
  in
  (points, !specials)
