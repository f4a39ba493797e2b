(** Constraint construction: CalcRndIntervals, CalcRedIntervals and
    CombineRedIntervals of the RLibm pipeline.

    Every covered input contributes the rounding interval of its
    round-to-odd oracle result, pulled back through the inverse output
    compensation and repaired against the actual double OC; constraints
    that share a reduced input are intersected (CalculatePhi).  Oracle
    results are memoized in-process and persisted through the hardened
    {!Cache} store (default ./.oracle-cache; relocate with
    RLIBM_CACHE_DIR, disable with RLIBM_NO_DISK_CACHE) since they are
    shared by all four evaluation schemes.  Corrupt or stale entries are
    detected, quarantined and regenerated — they never flow into rounding
    intervals. *)

type point = {
  r : float;  (** reduced input *)
  piece : int;
  mutable lo : float;  (** current reduced interval (mutated by the
                           generation loop's ConstrainInterval) *)
  mutable hi : float;
  mutable xs : int64 list;  (** input patterns merged into this point *)
}

type build_result = {
  points : point array array;
      (** per piece, sorted by reduced input; intervals are nonempty *)
  immediate_specials : (int64 * float) list;
      (** inputs whose constraint could not be expressed (empty reduced
          interval or empty intersection); the stored double is the
          decoded oracle result, which always lies in the rounding
          interval *)
  oracle : (int64, int64) Hashtbl.t;
      (** input bits -> round-to-odd result bits, for every non-shortcut
          input *)
}

(** [reduced_interval ~oc ~oc_inv iv] pulls [iv] back through an
    element's output compensation: the exact rational inverse [oc_inv]
    of the idealized compensation first, then the AdjHigher/AdjLower
    fix-up loop of CalculateL' against the actual double compensation
    [oc] ({!Reduction.compensate}).  [None] when no double reduced value
    maps inside [iv]. *)
val reduced_interval :
  oc:(float -> float) ->
  oc_inv:(Rat.t -> Rat.t) ->
  Intervals.t ->
  (float * float) option

(** [build ~cfg ~family ~inputs] assembles the merged constraint set for
    the given input patterns (finite ones; others are ignored).

    The per-input oracle evaluations and interval pull-backs fan out
    across the {!Parallel} pool; the CalculatePhi merge runs on the
    driver in input order, so the result is bit-identical for every job
    count.  [build] is the composition of the three stage bodies below;
    the staged pipeline (lib/pipeline) calls them separately so each
    product persists and resumes on its own. *)
val build :
  cfg:Config.t ->
  family:Reduction.t ->
  inputs:int64 array ->
  build_result

(** {1 Stage bodies}

    Pure computations (no disk I/O beyond the shared oracle memo the
    caller hands in) with the same determinism contract as [build]. *)

(** [oracle_range ~cfg ~family ~inputs ~lo ~hi ~known] computes the
    round-to-odd result of every finite, non-shortcut input of
    [inputs.(lo .. hi-1)] for which [known] is [false], as
    [(input, result)] pairs in input order (parallel fan-out,
    driver-ordered assembly).  [known] is a coverage predicate — pass
    [Hashtbl.mem table] to skip entries a shared table already holds, or
    [fun _ -> false] for the pure form whose output depends only on
    [(func, tin, tout, lo, hi)]; the latter is what the staged
    pipeline's content-keyed oracle {e shards} persist. *)
val oracle_range :
  cfg:Config.t ->
  family:Reduction.t ->
  inputs:int64 array ->
  lo:int ->
  hi:int ->
  known:(int64 -> bool) ->
  (int64 * int64) array

(** [ensure_oracle ~cfg ~family ~inputs ~oracle] fills [oracle] with the
    round-to-odd result of every finite, non-shortcut input that is not
    already present ({!oracle_range} over the whole input set with
    [known = Hashtbl.mem oracle], installed on the driver in input
    order).  Returns the number of entries computed; [0] means the table
    already covered the inputs. *)
val ensure_oracle :
  cfg:Config.t ->
  family:Reduction.t ->
  inputs:int64 array ->
  oracle:(int64, int64) Hashtbl.t ->
  int

(** One covered input's rounding interval (CalcRndIntervals): the oracle
    round-to-odd bits and the interval they induce in H = binary64. *)
type rounding_interval = {
  ri_x : int64;  (** input bits *)
  ri_y : int64;  (** oracle round-to-odd result bits *)
  ri_lo : float;
  ri_hi : float;
}

(** [rounding_intervals ~cfg ~family ~inputs ~oracle] lists, in input
    order, the rounding interval of every finite non-shortcut input.
    Depends only on (func, tin, tout) — never on the piece split or the
    reduction table — which is what makes it a separately keyable
    artifact.  Missing oracle entries are recomputed on the fly (same
    value), so a partially resumed table is safe. *)
val rounding_intervals :
  cfg:Config.t ->
  family:Reduction.t ->
  inputs:int64 array ->
  oracle:(int64, int64) Hashtbl.t ->
  rounding_interval array

(** [combine ~cfg ~family ~rivals] pulls every rounding interval back
    through the inverse output compensation (parallel) and runs the
    CalculatePhi merge (driver, entry order): CalcRedIntervals +
    CombineRedIntervals.  Returns the per-piece sorted points and the
    immediate specials, i.e. [build_result] minus the oracle table. *)
val combine :
  cfg:Config.t ->
  family:Reduction.t ->
  rivals:rounding_interval array ->
  point array array * (int64 * float) list

(** Drop every in-process memoized oracle table (the on-disk cache is
    untouched).  For tests that need to re-pay the oracle computation —
    e.g. the [-j 1] vs [-j N] determinism check. *)
val clear_memory_cache : unit -> unit

(** The shared oracle table for [(func, tin, tout)]: the in-process memo
    if present, else loaded from the persistent store, else fresh and
    empty.  The same physical table is returned for the same triple, so
    entries accumulate across builds of different schemes. *)
val oracle_table :
  func:Oracle.func ->
  tin:Softfp.fmt ->
  tout:Softfp.fmt ->
  (int64, int64) Hashtbl.t

(** Publish the memoized oracle table of [(func, tin, tout)] through the
    persistent store ([Ok ()] if the triple was never materialized).
    [Error (Store_io _)] when the publish failed — callers that exist to
    fill the store must propagate it instead of ignoring. *)
val persist_oracle_table :
  func:Oracle.func ->
  tin:Softfp.fmt ->
  tout:Softfp.fmt ->
  (unit, Diag.Error.t) result

(** The collision-free persistent-store key of the oracle table for
    [(func, tin, tout)]: covers both formats' exponent width {e and}
    precision plus the table's layout version, so formats with equal
    precision but different exponent ranges never share an entry, and a
    layout bump orphans (never trusts) older entries.  Pair with
    {!Cache.path_of_key} to locate the file — used by the cache-poisoning
    tests and tools/check.sh. *)
val oracle_cache_key :
  func:Oracle.func -> tin:Softfp.fmt -> tout:Softfp.fmt -> string
