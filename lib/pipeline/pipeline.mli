(** Staged artifact pipeline: every generation stage is a first-class,
    cacheable, resumable artifact.

    Generation factors into four stages,

    {v
    oracle table -> reduced constraints -> LP polynomial (per scheme)
                 -> verified function
    v}

    each persisted through the hardened {!Cache} store under a
    content-derived key covering exactly the knobs the stage depends on
    (function, both formats, pieces / table bits, scheme, degree and
    budget bounds, chained stage versions).  Re-running after an
    interrupted or partial generation resumes from the last completed
    stage bit-identically; changing any upstream knob invalidates
    exactly the downstream stages:

    {v
    knob                         invalidates from
    tin / extra_bits (formats)   oracle
    pieces, table_bits           constraints
    scheme, degree/round/special polynomial
    narrow                       verdict
    v}

    The stage bodies are the pure functions in {!Rlibm.Constraints}
    ([ensure_oracle], then [rounding_intervals] and [combine] in memory),
    {!Rlibm.Generate} ([solve] / [assemble]) and {!Genlibm} ([verify]);
    this module only sequences, persists and reports them.  Parallel
    fan-out stays on {!Parallel} inside the bodies and every random walk
    is seeded deterministically, so artifacts are bit-identical at every
    [-j] — a cold run, a warm run and a resumed run all produce the same
    coefficients, special tables and verdicts.

    The pipeline covers exhaustive-universe configurations (the input
    set is every finite pattern of [cfg.tin]); the sampled binary32 path
    stays on {!Genlibm.generate_sampled}.  Set [RLIBM_NO_DISK_CACHE] to
    degrade every stage to compute-always (the exact unstaged path). *)

type stage = Oracle | Constraints | Poly | Verdict

val all_stages : stage list
(** In pipeline order. *)

val stage_name : stage -> string
(** ["oracle"], ["constraints"], ["poly"], ["verdict"] —
    also the {!Cache} kind each stage's artifacts are accounted to. *)

val stage_of_name : string -> stage option

(** {1 Stage keys}

    Exposed for tests and tooling (pair with {!Cache.path_of_key}).
    Each key covers the full set of knobs its stage depends on, plus its
    own and all upstream stage-layout versions, so a bump anywhere
    upstream orphans exactly the downstream entries. *)

val oracle_key : cfg:Rlibm.Config.t -> Oracle.func -> string
val constraints_key : cfg:Rlibm.Config.t -> Oracle.func -> string

(** {2 Oracle shards}

    The oracle stage can be split into [shards] fixed sub-artifacts
    (kind ["oracle-shard"]).  Shard [k] covers the input bit range
    [\[k*n/shards, (k+1)*n/shards)] of the deterministic input
    enumeration — the same static-partition rule as {!Parallel}'s chunk
    grid, so the grid depends only on the universe size and the shard
    count, never on [-j].  Each shard's key derives from {!oracle_key}
    plus [(shard_index, shard_count, shard_version)]; bumping the
    version constant orphans every published shard at once. *)

val shard_range : n:int -> shards:int -> int -> int * int
(** [shard_range ~n ~shards k] is shard [k]'s half-open input index
    range.  The ranges partition [\[0, n)] in order. *)

val oracle_shard_key :
  cfg:Rlibm.Config.t -> shards:int -> index:int -> Oracle.func -> string

val poly_key :
  cfg:Rlibm.Config.t -> scheme:Polyeval.scheme -> Oracle.func -> string

val verdict_key :
  ?narrow:bool ->
  cfg:Rlibm.Config.t ->
  scheme:Polyeval.scheme ->
  Oracle.func ->
  string

(** {2 Round-1 LP seeds}

    The polynomial stage's first LP solve per (piece, degree) — see
    {!Rlibm.Generate.first_round_lp} — depends on the constraint set,
    not on the scheme.  It is stored as its own artifact (kind
    ["lp-seed"], payload [Lp.system_result]) keyed by
    {!constraints_key} + piece + degree + a layout version, so the
    first scheme generated for a function publishes it and every later
    scheme loads it instead of solving again.  Each use emits a Diag
    event ["lp.seed"] with [func], [piece], [degree] and
    [status] ([hit] / [rebuilt]). *)

val lp_seed_key :
  cfg:Rlibm.Config.t -> piece:int -> degree:int -> Oracle.func -> string

(** {1 Observability} *)

type status = Hit | Rebuilt

(** One stage execution's outcome, as {!run_stages} reports it.  Every
    stage execution also runs inside a Diag ["stage"] span whose
    ["stage.end"] record carries the same status. *)
type event = {
  ev_stage : stage;
  ev_key : string;
  ev_status : status;
  ev_seconds : float;  (** load / compute+publish wall time *)
}

val pp_event : Format.formatter -> event -> unit

(** {1 Stages}

    Each function returns its stage's artifact, recursively running (or
    loading) the upstream stages it needs.  A warm store satisfies the
    deepest stage directly — upstream stages are then never touched,
    which is what makes a warm [generate] perform zero oracle
    evaluations and zero LP solves. *)

val oracle_stage :
  ?shards:int ->
  ?only_shard:int ->
  cfg:Rlibm.Config.t ->
  Oracle.func ->
  ((int64, int64) Hashtbl.t, Diag.Error.t) result
(** Stage 1: the shared oracle table, complete for every finite
    non-shortcut input of [cfg.tin].  [Hit] when the (memoized or
    loaded) table already covered them; otherwise the missing Ziv loops
    fan out and the table is republished.

    [shards > 1] (default [1]) splits the stage into the fixed
    {!shard_range} grid: each shard loads from the store when published
    ({e cooperative fill} — a killed or concurrent warmer's completed
    shards are never recomputed), computes and publishes otherwise, and
    the shards merge into the whole table in shard-index order — the
    global input order — so the republished whole-table artifact is
    byte-identical to an unsharded run's.  The assembled table (and
    every downstream stage) is bit-identical for every [shards] and
    every [-j].  [only_shard] restricts the invocation to that single
    shard and skips the merge/republish — the distributed-driver mode;
    the returned table is then possibly partial.  [Error (Shard_range _)]
    when [shards < 1] or [only_shard] is outside [\[0, shards)].  Each
    shard emits an Info Diag event ["shard.done"] with [index], [count],
    [status] ([hit] / [rebuilt]), [entries], [seconds] and [key]. *)

val intervals_stage :
  cfg:Rlibm.Config.t ->
  Oracle.func ->
  Rlibm.Constraints.rounding_interval array
(** CalcRndIntervals over the stage-1 oracle table, computed in memory
    on every call.  Not a stage: the intervals cost less to recompute
    than to store and load back.  Exported because the repository
    benchmark (perfbench) times it as its own span. *)

val constraints_stage :
  cfg:Rlibm.Config.t ->
  Oracle.func ->
  Rlibm.Constraints.build_result
(** Stage 2: reduced, merged constraints — the rounding intervals
    ({!intervals_stage}), pulled back and merged (CalculatePhi).  The
    returned record shares the stage-1 oracle table. *)

val generate :
  cfg:Rlibm.Config.t ->
  scheme:Polyeval.scheme ->
  Oracle.func ->
  (Rlibm.Generate.generated, Diag.Error.t) result
(** Stage 3: the LP polynomial for one scheme, assembled into a runnable
    implementation.  Persists {!Rlibm.Generate.solved} (including typed
    [Error] outcomes — generation is deterministic, so a failure is a
    property of the knobs, not of the run). *)

val verified :
  ?narrow:bool ->
  cfg:Rlibm.Config.t ->
  scheme:Polyeval.scheme ->
  Oracle.func ->
  (Rlibm.Generate.generated * Genlibm.verify_report, Diag.Error.t) result
(** Stage 4: exhaustive verification verdict for the generated
    function. *)

(** {1 Drivers} *)

val run_stages :
  ?narrow:bool ->
  cfg:Rlibm.Config.t ->
  scheme:Polyeval.scheme ->
  Oracle.func ->
  event list
  * (Rlibm.Generate.generated * Genlibm.verify_report, Diag.Error.t) result
(** Run every stage explicitly in pipeline order (cheap when warm) and
    return one event per executed stage — the [rlibm_gen stages]
    report.  When the polynomial stage fails, the verdict stage is
    skipped and the event list has three entries. *)

type warm_report = {
  wm_entries : (Oracle.func * int) list;
      (** per function, the oracle-table entry count after warming *)
  wm_failed : (Oracle.func * Polyeval.scheme * Diag.Error.t) list;
      (** every skipped polynomial/verdict generation, in encounter
          order — empty means the store is fully pre-filled *)
  wm_store_failed : (Oracle.func * Diag.Error.t) list;
      (** every failed stage/shard/whole-table publish, in encounter
          order.  Generation tolerates a failed publish (the value flows
          downstream in memory), but warming exists to fill the store —
          an ENOSPC or read-only store must be reported, not shrugged
          off as a successful warm that cached nothing. *)
}

val warm :
  ?schemes:Polyeval.scheme list ->
  ?through:stage ->
  ?shards:int ->
  ?only_shard:int ->
  (Oracle.func * Rlibm.Config.t) list ->
  (warm_report, Diag.Error.t) result
(** Pre-fill the store: for each [(func, cfg)] run the pipeline through
    [through] (default {!Verdict}; the polynomial and verdict stages run
    once per scheme in [schemes], default {!Polyeval.paper_schemes}).
    [shards]/[only_shard] are passed to {!oracle_stage}; with
    [only_shard] set the invocation stops after that oracle shard
    regardless of [through] (a deeper stage would trigger the very
    whole-universe computation the shard split avoids).
    [Error (Shard_range _)] when the shard request is outside the grid.
    Generation failures are skipped — warming stays best-effort — but
    every skip is reported typed in [wm_failed], and
    every failed publish in [wm_store_failed], so drivers (CI warm jobs
    in particular) can fail loudly instead of silently half-filling the
    store. *)
