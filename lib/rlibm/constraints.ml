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
  oracle : (int64, int64) Hashtbl.t;  (* input bits -> round-to-odd bits *)
}

(* Exact inverse of the idealized output compensation of the element
   [reduce_into] left in [s]: q / 2^n, or q - c. *)
let oc_inv (family : Reduction.t) (s : Reduction.scratch) q =
  match family.params with
  | Reduction.Exp_params _ -> Rat.mul_pow2 q (-s.sn)
  | Reduction.Log_params _ -> Rat.sub q (Rat.of_float s.sf.sc)

(* Pull [iv] back through the output compensation: exact inverse first,
   then nudge the double endpoints until the real OC maps them inside the
   target interval.  Returns None when no double survives. *)
let reduced_interval ~oc ~oc_inv (iv : Intervals.t) =
  let inside v = iv.Intervals.lo <= v && v <= iv.Intervals.hi in
  let g_lo = ref (Rat.to_float_dir Rat.Up (oc_inv (Rat.of_float iv.Intervals.lo))) in
  let g_hi = ref (Rat.to_float_dir Rat.Down (oc_inv (Rat.of_float iv.Intervals.hi))) in
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
   on (function, input format, target format) — share them across the four
   evaluation schemes, and persist them through the hardened {!Cache}
   store (the moral equivalent of the artifact's pre-generated oracle
   files) so repeated runs of the tests, benchmarks and examples do not
   re-pay the Ziv loops.  Set RLIBM_NO_DISK_CACHE to disable persistence,
   RLIBM_CACHE_DIR to relocate it. *)
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

let persist_oracle_table ~func ~(tin : Softfp.fmt) ~(tout : Softfp.fmt) =
  let key = oracle_cache_key ~func ~tin ~tout in
  match Hashtbl.find_opt oracle_cache key with
  | Some t -> Cache.store ~kind:"oracle" ~key t
  | None -> Ok ()

(* ---------- stage bodies ----------

   [build] used to fuse three conceptually distinct computations: the
   Ziv-loop oracle evaluations, the rounding-interval construction, and
   the pull-back/CalculatePhi merge.  They are now separate pure bodies
   so the staged artifact pipeline (lib/pipeline) can persist and resume
   each one independently; [build] composes them unchanged. *)

(* Stage body 1, per-range form: the round-to-odd result of every
   finite, non-shortcut input of [inputs.(lo .. hi-1)] not claimed by
   [known], as (input, result) pairs in input order.  The Ziv loops fan
   out across the domain pool; the pair list is assembled on the driver,
   so the result is bit-identical at every job count.  With
   [known = fun _ -> false] the output is a pure function of
   (func, tin, tout, range) — which is what makes a range a
   content-keyable shard artifact (lib/pipeline's oracle shards). *)
let oracle_range ~(cfg : Config.t) ~(family : Reduction.t)
    ~(inputs : int64 array) ~lo ~hi ~(known : int64 -> bool) =
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
              if known x then None
              else
                Some
                  ( x,
                    Oracle.correctly_round family.func (Softfp.to_rat tin x)
                      ~fmt:tout ~mode:Softfp.RTO ))
      slice
  in
  let pairs = ref [] in
  for i = Array.length fresh - 1 downto 0 do
    match fresh.(i) with None -> () | Some p -> pairs := p :: !pairs
  done;
  Array.of_list !pairs

(* Stage body 1: ensure [oracle] holds the round-to-odd result of every
   finite, non-shortcut input.  Missing entries are computed by the pure
   per-range body above (the table is read, never written, during the
   sweep) and installed on the driver in input order.  Returns the
   number of entries computed — 0 means the table was already
   complete. *)
let ensure_oracle ~(cfg : Config.t) ~(family : Reduction.t)
    ~(inputs : int64 array) ~(oracle : (int64, int64) Hashtbl.t) =
  let pairs =
    oracle_range ~cfg ~family ~inputs ~lo:0 ~hi:(Array.length inputs)
      ~known:(fun x -> Hashtbl.mem oracle x)
  in
  Array.iter (fun (x, y) -> Hashtbl.replace oracle x y) pairs;
  Array.length pairs

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
   must cover the inputs — [ensure_oracle] first), so it depends only on
   (func, tin, tout), never on the piece split or reduction table. *)
let rounding_intervals ~(cfg : Config.t) ~(family : Reduction.t)
    ~(inputs : int64 array) ~(oracle : (int64, int64) Hashtbl.t) =
  let tin = cfg.tin and tout = Config.tout cfg in
  let acc = ref [] in
  Array.iter
    (fun x ->
      if Softfp.is_finite tin x then
        let xf = Softfp.to_float tin x in
        match family.shortcut xf with
        | Some _ -> ()
        | None ->
            let y =
              match Hashtbl.find_opt oracle x with
              | Some y -> y
              | None ->
                  (* Robustness: a caller resuming from a partial store
                     may hand an incomplete table; the result is the same
                     either way. *)
                  Oracle.correctly_round family.func (Softfp.to_rat tin x)
                    ~fmt:tout ~mode:Softfp.RTO
            in
            let iv = Intervals.of_round_to_odd tout y in
            acc := { ri_x = x; ri_y = y; ri_lo = iv.Intervals.lo;
                     ri_hi = iv.Intervals.hi }
                   :: !acc)
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
            ~oc_inv:(oc_inv family s) iv
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

let build ~(cfg : Config.t) ~(family : Reduction.t) ~(inputs : int64 array) =
  let tin = cfg.tin and tout = Config.tout cfg in
  let oracle = oracle_table ~func:family.func ~tin ~tout in
  ignore (ensure_oracle ~cfg ~family ~inputs ~oracle : int);
  (* Best-effort on this legacy composed path; the pipeline collects
     publish failures at its own call sites. *)
  ignore
    (persist_oracle_table ~func:family.func ~tin ~tout
      : (unit, Diag.Error.t) result);
  let rivals = rounding_intervals ~cfg ~family ~inputs ~oracle in
  let points, immediate_specials = combine ~cfg ~family ~rivals in
  { points; immediate_specials; oracle }
