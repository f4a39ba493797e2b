(* Staged artifact pipeline.  See pipeline.mli for the contract.

   Design notes:

   - Stage payloads are closure-free data (hash tables, float/int64
     arrays, Generate.solved) so Marshal round-trips are sound; the
     runnable closures (Reduction.t, Polyeval.compiled) are rebuilt
     deterministically by Generate.assemble.
   - Each stage function recursively obtains its upstream artifact
     *inside* its compute closure, so a warm deep stage never touches
     the stages above it.
   - Internally each stage returns its own stage event (key,
     hit/rebuilt, seconds) next to the artifact; [run_stages] reports
     those values directly, and the Diag "stage" span renders the same
     outcome for sinks. *)

type stage = Oracle | Constraints | Poly | Verdict

let all_stages = [ Oracle; Constraints; Poly; Verdict ]

let stage_name = function
  | Oracle -> "oracle"
  | Constraints -> "constraints"
  | Poly -> "poly"
  | Verdict -> "verdict"

let stage_of_name = function
  | "oracle" -> Some Oracle
  | "constraints" -> Some Constraints
  | "poly" -> Some Poly
  | "verdict" -> Some Verdict
  | _ -> None

let rank = function Oracle -> 1 | Constraints -> 2 | Poly -> 3 | Verdict -> 4

(* ---------- stage keys ----------

   Layout versions of the marshalled stage payloads.  Each key embeds
   its own version and the versions of every upstream stage it was
   derived from, so bumping one constant orphans exactly that stage and
   everything below it (the invalidation graph of DESIGN.md).  The
   oracle stage reuses Constraints.oracle_cache_key so tables warmed by
   earlier revisions stay valid. *)
let v_constraints = 1

(* v2: the persisted poly payload is a [(solved, Diag.Error.t) result] —
   failures are typed data now, not strings — so v1 entries (which held
   [(solved, string) result]) must be orphaned, not decoded.
   v3: the LP is solved in its dual, which returns different (equally
   optimal) vertices, so the coefficients of v2 entries are stale. *)
let v_poly = 3
let v_verdict = 1

let base ~(cfg : Rlibm.Config.t) func =
  let tin = cfg.Rlibm.Config.tin and tout = Rlibm.Config.tout cfg in
  Printf.sprintf "%s-in%d.%d-out%d.%d" (Oracle.name func) tin.Softfp.ebits
    tin.Softfp.prec tout.Softfp.ebits tout.Softfp.prec

let oracle_key ~(cfg : Rlibm.Config.t) func =
  Rlibm.Constraints.oracle_cache_key ~func ~tin:cfg.Rlibm.Config.tin
    ~tout:(Rlibm.Config.tout cfg)

(* Layout version of the marshalled oracle-shard payload (an
   (input, result) pair array).  Also the grid version: bumping it
   orphans every shard of every grid, so a change to either the payload
   layout or the partition rule can never mix old and new shards. *)
let shard_version = 1

(* Shard k of [shards] over an n-input universe covers the bit range
   [k*n/shards, (k+1)*n/shards) of the deterministic input enumeration —
   the same static-partition rule as Parallel's chunk grid, so the grid
   depends only on (n, shards), never on the job count or scheduling. *)
let shard_range ~n ~shards k = (k * n / shards, (k + 1) * n / shards)

let oracle_shard_key ~cfg ~shards ~index func =
  Printf.sprintf "%s-sh%d.%d-shv%d" (oracle_key ~cfg func) index shards
    shard_version

(* The ".1" ending the constraints and poly version chains was the
   layout version of the rounding-interval artifact, no longer stored; it
   stays frozen so those keys, and their stored entries, are unchanged. *)
let constraints_key ~(cfg : Rlibm.Config.t) func =
  Printf.sprintf "%s-p%d-tb%d-cns-v%d.1" (base ~cfg func)
    cfg.Rlibm.Config.pieces cfg.Rlibm.Config.table_bits v_constraints

let poly_key ~(cfg : Rlibm.Config.t) ~scheme func =
  Printf.sprintf "%s-p%d-tb%d-%s-d%d.%d-r%d-sp%d-ply-v%d.%d.1"
    (base ~cfg func) cfg.Rlibm.Config.pieces cfg.Rlibm.Config.table_bits
    (Polyeval.scheme_name scheme) cfg.Rlibm.Config.min_degree
    cfg.Rlibm.Config.max_degree cfg.Rlibm.Config.max_rounds
    cfg.Rlibm.Config.max_specials v_poly v_constraints

let verdict_key ?(narrow = true) ~cfg ~scheme func =
  Printf.sprintf "%s-nw%d-vrd-v%d" (poly_key ~cfg ~scheme func)
    (if narrow then 1 else 0)
    v_verdict

(* Layout version of the marshalled lp-seed payload (an Lp.system_result:
   round 1's LP outcome, see Generate.first_round_lp).  The seed is not
   part of the poly key, so a change to the round-1 LP itself (the
   solver, mono_bits, the point conversion) must bump both this and
   v_poly.  v2: the dual solver's round-1 vertices. *)
let v_lp_seed = 2

let lp_seed_key ~cfg ~piece ~degree func =
  Printf.sprintf "%s-pc%d-d%d-lps-v%d" (constraints_key ~cfg func) piece degree
    v_lp_seed

(* ---------- events ---------- *)

type status = Hit | Rebuilt

type event = {
  ev_stage : stage;
  ev_key : string;
  ev_status : status;
  ev_seconds : float;
}

let status_name = function Hit -> "hit" | Rebuilt -> "rebuilt"

let pp_event fmt ev =
  Format.fprintf fmt "%-11s  %-7s  %8.3fs  %s" (stage_name ev.ev_stage)
    (status_name ev.ev_status) ev.ev_seconds ev.ev_key

(* The outcome of one stage execution that started at [t0]. *)
let stage_event stage key status t0 =
  {
    ev_stage = stage;
    ev_key = key;
    ev_status = status;
    ev_seconds = Unix.gettimeofday () -. t0;
  }

(* ---------- publish-failure collection ----------

   Stage publishes are best-effort for generation — the freshly computed
   value still flows downstream, so an ENOSPC store must not abort a
   run that could finish in memory.  But a driver that exists to fill
   the store (warm) must not silently produce nothing: every failed
   publish inside [collect_store_errors] is gathered and handed back.
   Publishes run on the driver domain (the bodies fan out through
   Parallel internally), so a plain dynamically-scoped ref suffices. *)

let store_errors : Diag.Error.t list ref option ref = ref None

let note_store_error = function
  | Ok () -> ()
  | Error e -> (
      match !store_errors with Some acc -> acc := e :: !acc | None -> ())

let collect_store_errors f =
  let saved = !store_errors in
  let acc = ref [] in
  store_errors := Some acc;
  Fun.protect
    ~finally:(fun () -> store_errors := saved)
    (fun () ->
      let v = f () in
      (v, List.rev !acc))

(* Wrap one stage execution in a diag span: a ["stage.begin"] record
   before, a ["stage.end"] record carrying seconds + hit/rebuilt after.
   Body runs bare when no sink listens.  [body] returns the artifact and
   its stage event. *)
let stage_span stage key body =
  Diag.span "stage"
    (fun () ->
      [
        ("stage", Diag.String (stage_name stage)); ("key", Diag.String key);
      ])
    ~result:(fun (_, ev) ->
      [ ("status", Diag.String (status_name ev.ev_status)) ])
    body

(* Load-or-compute-and-publish. *)
let load_or_compute ~kind ~key compute =
  match Cache.load ~kind ~key with
  | Ok (Some v) -> (v, Hit)
  | Ok None | Error _ ->
      (* Absent, or a corrupt entry the store already counted and
         quarantined: recompute and republish — the self-healing path.
         A failed publish is not fatal (the store emitted its own
         warning, and the collector reports it to drivers that care);
         the value still flows downstream. *)
      let v = compute () in
      note_store_error (Cache.store ~kind ~key v);
      (v, Rebuilt)

(* A stage's load-or-compute: the artifact and its stage event. *)
let staged ~stage ~key compute =
  stage_span stage key (fun () ->
      let t0 = Unix.gettimeofday () in
      let v, status = load_or_compute ~kind:(stage_name stage) ~key compute in
      (v, stage_event stage key status t0))

(* ---------- shared per-config plumbing ---------- *)

(* The shared oracle table the stages read: stage 1's artifact in
   memory, whichever stage (or an earlier run) put it there. *)
let shared_oracle ~(cfg : Rlibm.Config.t) func =
  Rlibm.Constraints.oracle_table ~func ~tin:cfg.Rlibm.Config.tin
    ~tout:(Rlibm.Config.tout cfg)

let inputs_of (cfg : Rlibm.Config.t) =
  Genlibm.inputs_exhaustive cfg.Rlibm.Config.tin

(* ---------- stage 1: oracle table ---------- *)

(* Does the table still miss a covered (finite, non-shortcut) input of
   [inputs.(lo .. hi-1)]?  Cheap (hash lookups only) — this is what lets
   a fully warm table short-circuit every shard without touching the
   store. *)
let range_incomplete ~(cfg : Rlibm.Config.t) ~(family : Rlibm.Reduction.t)
    ~(inputs : int64 array) ~(oracle : (int64, int64) Hashtbl.t) ~lo ~hi =
  let tin = cfg.Rlibm.Config.tin in
  let rec scan i =
    i < hi
    && ((Softfp.is_finite tin inputs.(i)
        && family.Rlibm.Reduction.shortcut (Softfp.to_float tin inputs.(i))
           = None
        && not (Hashtbl.mem oracle inputs.(i)))
       || scan (i + 1))
  in
  scan lo

(* The oracle stage is incremental rather than load-or-compute: the
   shared table may be partially filled (by earlier configs of the same
   formats), and completeness — not mere presence — is what "hit"
   means.  The scan is cheap (hash lookups); the Ziv loops are not.

   One fill loop serves every shard count.  The input universe splits
   into the fixed [shard_range] grid (one range when [shards = 1]); a
   range the table already covers is a hit, any other range's pairs
   come from [Constraints.oracle_range].  A sharded invocation
   ([shards > 1] or [only_shard]) makes each range its own
   content-keyed store artifact (kind ["oracle-shard"]): a shard already
   published is loaded, never recomputed — which is what makes an
   interrupted warm resumable and lets several processes fill one store
   cooperatively (the O_EXCL-temp publish protocol of {!Cache} keeps
   racing writers safe; identical content makes the race benign).
   Ranges install into the shared table in index order — exactly the
   global input order — so the whole-table artifact is byte-identical
   for every shard count.  [only_shard] restricts the invocation to one
   shard (for distributed drivers); the whole table is then left
   unpublished.  Shard arguments are known to be in range here
   ([shard_args] checked them), and [run_oracle ~shards:1] is what the
   deeper stages call, so their compute closures never see a shard
   error. *)
let run_oracle ~shards ?only_shard ~(cfg : Rlibm.Config.t) func =
  let key = oracle_key ~cfg func in
  let span_key =
    match only_shard with
    | Some k -> oracle_shard_key ~cfg ~shards ~index:k func
    | None -> key
  in
  stage_span Oracle span_key (fun () ->
      let t0 = Unix.gettimeofday () in
      let oracle = shared_oracle ~cfg func in
      let family = Rlibm.Generate.family ~cfg func in
      let inputs = inputs_of cfg in
      let n = Array.length inputs in
      let sharded = shards > 1 || only_shard <> None in
      let computed = ref 0 and installed = ref 0 in
      let fill k =
        let lo, hi = shard_range ~n ~shards k in
        let skey = oracle_shard_key ~cfg ~shards ~index:k func in
        let st0 = Unix.gettimeofday () in
        let shard_event name fields =
          if sharded then
            Diag.event name (fun () ->
                ("index", Diag.Int k) :: ("count", Diag.Int shards) :: fields)
        in
        let shard_done status entries =
          shard_event "shard.done"
            [
              ("status", Diag.String (status_name status));
              ("entries", Diag.Int entries);
              ("seconds", Diag.Float (Unix.gettimeofday () -. st0));
              ("key", Diag.String skey);
            ]
        in
        if not (range_incomplete ~cfg ~family ~inputs ~oracle ~lo ~hi) then
          (* Already covered by the table: no store traffic. *)
          shard_done Hit 0
        else begin
          let compute () =
            let pairs =
              Rlibm.Constraints.oracle_range ~cfg ~family ~inputs ~lo ~hi
            in
            computed := !computed + Array.length pairs;
            pairs
          in
          (* A shard is published before it is merged, so a kill after
             this point never loses the completed Ziv work. *)
          let pairs, status =
            if sharded then load_or_compute ~kind:"oracle-shard" ~key:skey compute
            else (compute (), Rebuilt)
          in
          let entries = Array.length pairs in
          shard_event
            (match status with Hit -> "shard.load" | Rebuilt -> "shard.publish")
            [ ("entries", Diag.Int entries) ];
          Array.iter (fun (x, y) -> Hashtbl.replace oracle x y) pairs;
          installed := !installed + entries;
          shard_done status entries
        end
      in
      List.iter fill
        (match only_shard with Some k -> [ k ] | None -> List.init shards Fun.id);
      (* Publish the whole table whenever a range contributed, so
         downstream stages and later runs load the single merged entry. *)
      if only_shard = None && !installed > 0 then
        note_store_error (Cache.store ~kind:"oracle" ~key oracle);
      let status = if !computed = 0 then Hit else Rebuilt in
      (oracle, stage_event Oracle span_key status t0))

(* [Error (Shard_range _)] unless [shards >= 1] and [only_shard] names
   one of them. *)
let shard_args ~shards only_shard =
  if shards < 1 then Error (Diag.Error.Shard_range { index = 0; count = shards })
  else
    match only_shard with
    | Some k when k < 0 || k >= shards ->
        Error (Diag.Error.Shard_range { index = k; count = shards })
    | _ -> Ok ()

let oracle_stage ?(shards = 1) ?only_shard ~(cfg : Rlibm.Config.t) func =
  Result.map
    (fun () -> fst (run_oracle ~shards ?only_shard ~cfg func))
    (shard_args ~shards only_shard)

(* ---------- rounding intervals: computed, not a stage ---------- *)

let intervals_stage ~cfg func =
  let oracle, _ = run_oracle ~shards:1 ~cfg func in
  Rlibm.Constraints.rounding_intervals ~cfg
    ~family:(Rlibm.Generate.family ~cfg func)
    ~inputs:(inputs_of cfg) ~oracle

(* ---------- stage 2: reduced, merged constraints ---------- *)

(* Persisted payload: the per-piece points and the immediate specials,
   derived from the rounding intervals in memory. *)
let constraints_staged ~(cfg : Rlibm.Config.t) func =
  let (points, immediate_specials), ev =
    staged ~stage:Constraints ~key:(constraints_key ~cfg func) (fun () ->
        let rivals = intervals_stage ~cfg func in
        Rlibm.Constraints.combine ~cfg
          ~family:(Rlibm.Generate.family ~cfg func)
          ~rivals)
  in
  ({ Rlibm.Constraints.points; immediate_specials }, ev)

let constraints_stage ~cfg func = fst (constraints_staged ~cfg func)

(* ---------- stage 3: LP polynomial per scheme ---------- *)

(* Round 1's LP per (piece, degree), content-keyed under the constraint
   set: the first scheme of a function publishes it, every later scheme
   loads it instead of re-solving (kind "lp-seed"). *)
let lp_seed ~cfg func ~piece ~degree points =
  let v, status =
    load_or_compute ~kind:"lp-seed" ~key:(lp_seed_key ~cfg ~piece ~degree func)
      (fun () -> Rlibm.Generate.first_round_lp ~degree points)
  in
  Diag.event "lp.seed" (fun () ->
      [
        ("func", Diag.String (Oracle.name func));
        ("piece", Diag.Int piece);
        ("degree", Diag.Int degree);
        ("status", Diag.String (status_name status));
      ]);
  (v : Lp.system_result)

let solved_stage ~cfg ~scheme func =
  (staged ~stage:Poly ~key:(poly_key ~cfg ~scheme func) (fun () ->
       let built = constraints_stage ~cfg func in
       Rlibm.Generate.solve ~first_round:(lp_seed ~cfg func) ~cfg ~scheme
         ~func ~built ~oracle:(shared_oracle ~cfg func) ())
    : (Rlibm.Generate.solved, Diag.Error.t) result * event)

let solved ~cfg ~scheme func = fst (solved_stage ~cfg ~scheme func)

let assemble ~cfg ~scheme func solved =
  Result.map (Rlibm.Generate.assemble ~cfg ~scheme ~func) solved

let generate ~cfg ~scheme func =
  assemble ~cfg ~scheme func (solved ~cfg ~scheme func)

(* ---------- stage 4: verified function ---------- *)

let verdict_staged ~narrow ~cfg ~scheme func g =
  (staged ~stage:Verdict ~key:(verdict_key ~narrow ~cfg ~scheme func)
     (fun () ->
       Genlibm.verify ~narrow ~oracle:(shared_oracle ~cfg func) g
         ~inputs:(inputs_of cfg))
    : Genlibm.verify_report * event)

let verified ?(narrow = true) ~cfg ~scheme func =
  Result.map
    (fun g -> (g, fst (verdict_staged ~narrow ~cfg ~scheme func g)))
    (generate ~cfg ~scheme func)

(* ---------- drivers ---------- *)

(* One explicit pass over every stage, in pipeline order, reporting the
   event of each stage's own step (deeper steps find their upstream
   artifacts already warm). *)
let run_stages ?(narrow = true) ~cfg ~scheme func =
  let _, oracle = run_oracle ~shards:1 ~cfg func in
  let _, constraints = constraints_staged ~cfg func in
  let solved, poly = solved_stage ~cfg ~scheme func in
  match assemble ~cfg ~scheme func solved with
  | Error _ as e -> ([ oracle; constraints; poly ], e)
  | Ok g ->
      let report, verdict = verdict_staged ~narrow ~cfg ~scheme func g in
      ([ oracle; constraints; poly; verdict ], Ok (g, report))

type warm_report = {
  wm_entries : (Oracle.func * int) list;
  wm_failed : (Oracle.func * Polyeval.scheme * Diag.Error.t) list;
  wm_store_failed : (Oracle.func * Diag.Error.t) list;
}

let warm ?(schemes = Polyeval.paper_schemes) ?(through = Verdict)
    ?(shards = 1) ?only_shard pairs =
  Result.map
    (fun () ->
      let depth =
        (* A single-shard invocation is a distributed-driver slice of the
           oracle stage: running any deeper stage would silently trigger
           the full oracle computation the caller is trying to split
           up. *)
        match only_shard with Some _ -> rank Oracle | None -> rank through
      in
      let failed = ref [] in
      let store_failed = ref [] in
      let entries =
        List.map
          (fun (func, cfg) ->
            let count, errs =
              collect_store_errors (fun () ->
                  let oracle, _ = run_oracle ~shards ?only_shard ~cfg func in
                  if depth >= rank Constraints then
                    ignore
                      (constraints_stage ~cfg func
                        : Rlibm.Constraints.build_result);
                  if depth >= rank Poly then
                    List.iter
                      (fun scheme ->
                        let outcome =
                          if depth >= rank Verdict then
                            Result.map ignore (verified ~cfg ~scheme func)
                          else Result.map ignore (generate ~cfg ~scheme func)
                        in
                        match outcome with
                        | Ok () -> ()
                        | Error err -> failed := (func, scheme, err) :: !failed)
                      schemes;
                  Hashtbl.length oracle)
            in
            List.iter (fun e -> store_failed := (func, e) :: !store_failed) errs;
            (func, count))
          pairs
      in
      {
        wm_entries = entries;
        wm_failed = List.rev !failed;
        wm_store_failed = List.rev !store_failed;
      })
    (shard_args ~shards only_shard)
