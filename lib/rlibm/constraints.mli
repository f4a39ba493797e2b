(** Constraint construction: CalcRndIntervals, CalcRedIntervals and
    CombineRedIntervals of the RLibm pipeline.

    Every covered input contributes the rounding interval of its
    round-to-odd oracle result, pulled back through the inverse output
    compensation and repaired against the actual double OC; constraints
    that share a reduced input are intersected (CalculatePhi).

    The three steps are separate pure stage bodies ({!oracle_range},
    {!rounding_intervals}, {!combine}) over an oracle table the caller
    owns.  The staged pipeline (lib/pipeline) is the one generation
    driver: its oracle stage fills the shared per-(func, tin, tout)
    table ({!oracle_table}) with {!oracle_range}'s pairs, publishes it
    under {!oracle_cache_key} through the hardened {!Cache}
    store (default ./.oracle-cache; relocate with RLIBM_CACHE_DIR,
    disable with RLIBM_NO_DISK_CACHE) since it is shared by all five
    evaluation schemes, and is that table's only writer.  Corrupt or
    stale entries are detected, quarantined and regenerated — they never
    flow into rounding intervals.  Sampled generation
    ({!Genlibm.generate_sampled}) runs the same bodies over a private
    table and never touches the shared one or the store. *)

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
}

(** The exact inverse of an element's idealized output compensation:
    [Scale n] is q / 2^n (exponentials), [Shift c] is q - c (logs). *)
type inverse = Scale of int | Shift of float

(** [Scale sn] or [Shift sc], for the element [reduce_into] left in the
    scratch.  A test hook. *)
val inverse : Reduction.t -> Reduction.scratch -> inverse

(** [pull inv ~up q] is the exact inverse of [q] rounded up or down to a
    double ([+0.0] for an exact zero), in double arithmetic:
    - [Scale n]: [ldexp q (-n)] is exact while it is a normal double.  A
      subnormal (or overflowing) quotient is decided in place: scaling it
      back by 2^n is exact (or overflows past [q]), so comparing that
      with [q] tells on which side of the true quotient it lies, and one
      [succ]/[pred] step rounds the requested way.
    - [Shift c]: TwoSum gives [s], the nearest double to [q - c], and the
      exact error [(q - c) - s] (barring overflow, which needs operands
      near 2^1023; a log's are below 2^15); its sign decides the step.
      An infinite [s] rounds toward zero to [±max_float].  A test hook. *)
val pull : inverse -> up:bool -> float -> float

(** [reduced_interval ~oc ~inv iv] pulls [iv] back through an element's
    output compensation: the directed {!pull} of both endpoints through
    the exact inverse [inv] of the idealized compensation first, then
    the AdjHigher/AdjLower fix-up loop of CalculateL' (at most 256
    nudges per direction) against the actual double compensation [oc]
    ({!Reduction.compensate}).  [None] when no double reduced value maps
    inside [iv].  A test hook. *)
val reduced_interval :
  oc:(float -> float) -> inv:inverse -> Intervals.t -> (float * float) option

(** {1 Stage bodies}

    Pure computations: no disk I/O, and no table but the one the caller
    hands in.  The per-input work fans out across the {!Parallel} pool
    and every merge runs on the driver in input order, so each result is
    bit-identical for every job count. *)

(** [oracle_range ~cfg ~family ~inputs ~lo ~hi] computes the
    round-to-odd result of every finite, non-shortcut input of
    [inputs.(lo .. hi-1)], as [(input, result)] pairs in input order
    (parallel fan-out, driver-ordered assembly).  The output depends
    only on [(func, tin, tout, lo, hi)], which is what the staged
    pipeline's content-keyed oracle {e shards} persist; installing the
    pairs into a table ([Hashtbl.replace], in order) is the caller's
    step.

    A call that evaluates at least one input emits one Info event
    ["oracle.ziv"] with fields [func], [inputs], [fast] (decided by the
    native first tier), [analytic] (exact values and range shortcuts),
    [fallbacks] (decided by the dyadic Ziv loop) and, per Ziv level that
    decided any, [ziv<prec>] counts.  A call with nothing to evaluate
    emits none. *)
val oracle_range :
  cfg:Config.t ->
  family:Reduction.t ->
  inputs:int64 array ->
  lo:int ->
  hi:int ->
  (int64 * int64) array

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
    Depends only on (func, tin, tout), never on the piece split or the
    reduction table.  [oracle] must cover those inputs (install
    {!oracle_range}'s pairs first).
    @raise Not_found when it does not. *)
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
    immediate specials: the fields of a [build_result]. *)
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
    every scheme of a function reads one table.  Only the pipeline's
    oracle stage adds entries (from {!oracle_range}) and publishes the
    table under {!oracle_cache_key}: once that stage has run, the table
    covers every finite non-shortcut input of [tin], and generation and
    verification only read it. *)
val oracle_table :
  func:Oracle.func ->
  tin:Softfp.fmt ->
  tout:Softfp.fmt ->
  (int64, int64) Hashtbl.t

(** The collision-free persistent-store key of the oracle table for
    [(func, tin, tout)]: covers both formats' exponent width {e and}
    precision plus the table's layout version, so formats with equal
    precision but different exponent ranges never share an entry, and a
    layout bump orphans (never trusts) older entries.  Pair with
    {!Cache.path_of_key} to locate the file — used by the cache-poisoning
    tests and tools/check.sh. *)
val oracle_cache_key :
  func:Oracle.func -> tin:Softfp.fmt -> tout:Softfp.fmt -> string
