(** Servable libm snapshot: an immutable, persisted bundle of verified
    generated functions, loadable without touching the oracle, the LP
    solver, or even the per-stage artifacts.

    A snapshot is built from a list of [(func, scheme, cfg)] requests.
    Each request resolves through {!Pipeline.solved} — a warm artifact
    store satisfies it from the persisted polynomial stage (zero oracle
    evaluations, zero LP solves); a cold store runs the full staged
    pipeline once.  The resolved snapshot is then persisted through
    {!Cache} under kind ["snapshot"] as closure-free data (each
    {!Rlibm.Generate.solved} record as the polynomial stage produced
    it, plus the logarithm reduction tables) and assembled once, keyed by a digest of every entry's polynomial-stage key —
    any knob change anywhere upstream changes the snapshot key.

    Loading a warm snapshot therefore reads exactly one store entry:
    the reduction tables ship inside the artifact and are passed to
    {!Rlibm.Generate.assemble}, so assembly never consults the table
    store or the oracle.

    {!eval_batch_into} runs the zero-allocation batch kernel
    ({!Genlibm.eval_bits_into}) over caller-owned buffers.  A small
    request (below 2048 elements) runs on the calling domain; a larger
    one fans out over the {!Parallel} pool, each chunk (at least 1024
    elements) sweeping its disjoint slice.  This kernel is the code
    {!Genlibm.verify} checks, it is bit-identical to the DAG reference
    {!Genlibm.eval_bits} per element, and the {!Parallel} determinism
    contract applies, so results are bit-identical to the reference for
    every job count ([-j 1] is one sequential kernel sweep). *)

(** One served function: the request that produced it and the assembled
    runnable implementation. *)
type entry = {
  e_func : Oracle.func;
  e_scheme : Polyeval.scheme;
  e_cfg : Rlibm.Config.t;
  e_impl : Genlibm.t;
}

(** An immutable snapshot (a set of entries plus its store key). *)
type t

(** The store key a request list resolves to: a digest over every
    entry's {!Pipeline.poly_key}, so the key pins function set, order,
    schemes, formats, generation knobs and all upstream stage layout
    versions.  Exposed for tests and tooling (pair with
    {!Cache.path_of_key}).  A test hook. *)
val snapshot_key :
  (Oracle.func * Polyeval.scheme * Rlibm.Config.t) list -> string

(** [build specs] loads the persisted snapshot for [specs] if present
    (validating that every stored entry matches its request), otherwise
    resolves each request through {!Pipeline.solved} and persists the
    result.  Failures are typed: the first request whose generation
    failed propagates its {!Diag.Error.t} (nothing is persisted then),
    and a spec list naming the same function twice is rejected with
    [Bad_config] before any resolution (lookups — {!find}, the batch
    entry points — are per-function, so the later entry could never be
    served; it would be silently shadowed by the first).

    A stored snapshot that exists but fails store validation
    ([Corrupt_artifact]/[Key_mismatch]/[Store_io]) degrades gracefully
    by default: the store has already quarantined/warned, a
    [serve.degraded] Diag warn is emitted, and the snapshot regenerates
    through the pipeline — serving availability wins over a bad file.
    With [strict:true] (the [--strict-snapshot] CLI flag) the typed
    error surfaces instead — for deployments that would rather go down
    than spend an unbounded regeneration at startup; the quarantine
    makes an immediate retry rebuild cleanly.

    Snapshot resolution emits an Info Diag event ["serve.snapshot"] with
    [key] and [status]: [loaded], [persisted] (after a rebuild),
    [stale] or [mismatch] (a stored snapshot was unusable and is being
    rebuilt), or [rejected] (strict mode surfaced the store error). *)
val build :
  ?strict:bool ->
  (Oracle.func * Polyeval.scheme * Rlibm.Config.t) list ->
  (t, Diag.Error.t) result

val key : t -> string

(** Entries in request order. *)
val entries : t -> entry list

(** The first entry serving [func], if any — a hash probe on the
    function name (the index is built at snapshot construction). *)
val find : t -> Oracle.func -> entry option

(** [eval_batch_into t func ~src ~dst] evaluates the served
    implementation of [func] on every pattern of [src], writing
    [dst.{i}] for each [i] in [\[0, dim src)].  The serving hot path:
    below 2048 elements one kernel sweep on the calling domain, above
    it chunks of the batch run the zero-allocation kernel concurrently
    into disjoint slices of [dst]; results are the ones
    {!Genlibm.verify} checks, bit-identical to the DAG reference
    {!Genlibm.eval_bits} at every job count and batch size.
    @raise Invalid_argument when the snapshot does not serve [func] or
    [dst] is shorter than [src]. *)
val eval_batch_into :
  t -> Oracle.func -> src:Genlibm.src_buf -> dst:Genlibm.dst_buf -> unit
