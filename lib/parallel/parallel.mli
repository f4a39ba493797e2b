(** Deterministic multicore fan-out over a fixed-size domain pool.

    The whole RLibm pipeline is embarrassingly parallel over inputs and
    reduced points; this module is the single substrate every hot layer
    (oracle table construction, the generate/validate loop, exhaustive
    verification, the benchmark grid) uses to fan that work out across
    OCaml 5 domains.

    {2 Grain}

    Every combinator takes [?grain] (default [1]; values below 1 count
    as 1): the smallest chunk worth handing to another domain.  A fan-out wakes workers and takes
    the pool mutex several times per chunk — microseconds that swamp a
    chunk of cheap work — so callers with cheap per-item [f] pass the
    item count below which running on the calling domain is faster.
    The combinator runs sequentially on the calling domain, as one
    sweep over [\[0, n)], when [jobs () = 1] or [n < 2 * grain];
    otherwise it splits into [c = min (jobs () * 8) (n / grain)]
    chunks, so every chunk holds at least [grain] items.

    {2 Determinism contract}

    Work on [n] items is split into chunks by a static partition that
    depends only on [n], the job count and [grain]; chunk [k] covers
    [\[k*n/c, (k+1)*n/c)].  Workers may execute chunks in any order, but
    every chunk writes its own disjoint index range, so for a pure [f]
    the output is bit-identical to the sequential path regardless of the
    worker count, the grain or scheduling.  On the sequential path no
    domain is ever spawned and every combinator degrades to its exact
    [Stdlib.Array] equivalent on the calling domain.

    {2 Requirements on [f]}

    [f] runs on worker domains: it must not raise data races — it may
    read shared structures freely as long as nothing mutates them during
    the call (e.g. oracle hash tables are read-only inside a fan-out and
    memoized on the driver afterwards), and any writes must target
    per-index disjoint locations.  Driver-domain-only state (the
    generator's RNG, LP warm starts) must stay out of [f].

    If [f] raises, the exception from the lowest-numbered failing chunk
    is re-raised on the caller's domain after all chunks finish. *)

(** Number of jobs the next fan-out will use.  Precedence: {!set_jobs}
    (the [-j] flag of the executables) wins over the [RLIBM_JOBS]
    environment variable, which wins over
    [Domain.recommended_domain_count ()]. *)
val jobs : unit -> int

(** [set_jobs j] fixes the job count (clamped to at least 1).  An
    existing pool of a different size is torn down; the next fan-out
    lazily starts [j - 1] workers (the caller is the [j]-th). *)
val set_jobs : int -> unit

(** The default job count: [RLIBM_JOBS] if set (non-empty) and a
    positive integer, otherwise [Domain.recommended_domain_count ()].
    A malformed value falls back to the core count with a one-time
    warning on stderr (the [-j] flag, by contrast, rejects bad values
    outright — the flag always wins over the environment). *)
val default_jobs : unit -> int

(** [map_array ?grain f a] is [Array.map f a], fanned out under the
    grain rule above.  Chunks write disjoint ranges of a single
    preallocated result array (no per-chunk slices, no concatenation
    copy); the driver evaluates [f a.(0)] first as the allocation
    seed. *)
val map_array : ?grain:int -> ('a -> 'b) -> 'a array -> 'b array

(** [init ?grain n f] is [Array.init n f] with the same fan-out rule and
    the same direct-write merge; chunks tabulate disjoint index
    ranges. *)
val init : ?grain:int -> int -> (int -> 'a) -> 'a array

(** [iter_chunks ?grain n f] partitions [0..n-1] into the static chunk
    grid and calls [f lo hi] for each half-open range [\[lo, hi)].
    Sequentially ([jobs () = 1] or [n < 2 * grain]) this is the single
    call [f 0 n] on the calling domain; [n = 0] calls nothing.  [f] must
    treat each index independently (fill disjoint slots of a
    preallocated array) for the determinism contract to hold. *)
val iter_chunks : ?grain:int -> int -> (int -> int -> unit) -> unit
