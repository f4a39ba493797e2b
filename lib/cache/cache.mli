(** Hardened persistent store for expensive binary artifacts: oracle
    tables and their per-range shards (kind ["oracle-shard"]), the
    per-stage pipeline artifacts, and serving snapshots.

    The previous ad-hoc cache wrote raw [Marshal] blobs and swallowed
    every load error, so a truncated, bit-flipped or layout-drifted file
    was either silently ignored or — worse — deserialized into garbage
    that flowed straight into rounding intervals.  This store makes every
    failure mode loud and recoverable:

    - {b Versioned header.}  Every file starts with an 8-byte magic, a
      format version, and the {e full} store key.  A file whose header
      does not match exactly what the reader expects (old un-versioned
      blob, different layout version, key collision, crafted rename) is
      rejected, never deserialized.
    - {b Checksummed payload.}  A CRC-32 over the marshalled payload is
      stored in the header; silent corruption (truncation, bit flips,
      torn writes on crash) is detected before [Marshal] ever runs.
    - {b Atomic publish.}  Writers marshal into a unique temp file
      ([.tmp-<pid>-<counter>], opened with [O_EXCL]) and publish with a
      single [rename], so concurrent writers cannot clobber each other
      mid-write and readers only ever observe complete files.
    - {b Quarantine.}  A rejected file is renamed aside to
      [<file>.corrupt-<pid>-<counter>] (kept for post-mortems) and the
      load reports a miss, so the caller regenerates instead of trusting
      garbage; the next publish replaces the entry.
    - {b Observability.}  Hit / miss / corrupt-rejected / byte counters,
      surfaced by the executables via [--cache-stats], so cache behaviour
      is visible rather than inferred.

    Payloads are still [Marshal] blobs, so a load is only type-safe when
    the key fully determines the payload type {e and} layout — embed a
    layout version in the key (see {!Rlibm.Constraints.oracle_cache_key})
    and bump it whenever the marshalled type changes. *)

(** Version of the on-disk container format (header layout), embedded in
    every file and checked on load.  Distinct from any payload-layout
    version, which belongs in the key. *)
val format_version : int

(** {1 Location and enablement} *)

(** Directory holding the store: {!set_dir}'s value if called, otherwise
    [$RLIBM_CACHE_DIR] if set and non-empty, otherwise [./.oracle-cache].
    The environment is re-read on every call, so tests can flip it. *)
val dir : unit -> string

(** Override the store directory for this process (takes precedence over
    [RLIBM_CACHE_DIR]); created lazily on first store. *)
val set_dir : string -> unit

(** Persistence is off when {!set_persistence} forced it off, or —
    absent an override — when [RLIBM_NO_DISK_CACHE] is set to a
    non-empty value: loads return [None] and stores are no-ops, without
    touching the counters. *)
val enabled : unit -> bool

(** [set_persistence (Some b)] forces persistence on or off for this
    process, taking precedence over [RLIBM_NO_DISK_CACHE]; [None]
    restores environment-controlled behaviour.  Prefer
    {!with_persistence} for scoped use. *)
val set_persistence : bool option -> unit

(** [with_persistence b f] runs [f] with persistence forced to [b],
    restoring the previous override on exit (also on exceptions).  The
    process-local alternative to mutating the environment: [Unix.putenv]
    is global, races with concurrent domains, and leaks into child
    processes. *)
val with_persistence : bool -> (unit -> 'a) -> 'a

(** The file a key lives at: [dir ()/<sanitized key>] (characters outside
    [A-Za-z0-9._-] become [_]).  Exposed for tests and tooling that need
    to inspect or corrupt entries deliberately. *)
val path_of_key : string -> string

(** {1 Store and load}

    Every entry belongs to an artifact {e kind} — a short label
    ("oracle", "constraints", "poly", …) that buckets the observability
    counters so [--cache-stats] can show {e where} time is saved, not
    just that it was.  The kind is reporting metadata only: it does not
    participate in the key or the on-disk layout. *)

(** [store ~kind ~key v] marshals [v] and atomically publishes it under
    [key].  [Ok ()] on publish (or when persistence is disabled); an I/O
    failure (read-only directory, disk full) leaves the previous entry,
    if any, intact and reports [Error (Store_io _)].  Callers for whom
    persistence is best-effort ignore the [Error] and regenerate next
    run; callers that exist to publish (shard drivers) propagate it. *)
val store : kind:string -> key:string -> 'a -> (unit, Diag.Error.t) result

(** [load ~kind ~key] returns [Ok (Some v)] on a validated hit,
    [Ok None] when the entry is absent (a miss, also when persistence is
    disabled), and [Error] when something is wrong with an entry that
    {e does} exist: [Corrupt_artifact]/[Key_mismatch] for a file that
    failed header/checksum/decode validation (counted as
    corrupt-rejected and quarantined aside, so regenerating is safe and
    the next publish replaces it), [Store_io] for an unreadable file.
    The unsafe ['a] is inherent to [Marshal]; see the module comment for
    the key discipline that makes it sound. *)
val load : kind:string -> key:string -> ('a option, Diag.Error.t) result

(** {1 Observability} *)

type stats = {
  hits : int;  (** loads that validated and deserialized *)
  misses : int;  (** loads of absent entries *)
  corrupt_rejected : int;
      (** loads rejected by header/checksum/decode validation; each one
          quarantined a file *)
  retried : int;
      (** transient I/O failures absorbed by the bounded retry (each
          increment is one extra attempt, not one failed operation) *)
  bytes_read : int;  (** file bytes of successful loads *)
  bytes_written : int;  (** file bytes of successful publishes *)
}

(** Snapshot of the process-wide counters (domain-safe). *)
val stats : unit -> stats

(** Per-kind counter snapshots, sorted by kind name; kinds that were
    never touched since the last {!reset_stats} are absent. *)
val stats_by_kind : unit -> (string * stats) list

val reset_stats : unit -> unit

(** One-line human-readable counter report, e.g. for [--cache-stats]. *)
val pp_stats : Format.formatter -> stats -> unit

(** Indented per-kind breakdown lines (one per kind, led by a newline),
    meant to follow {!pp_stats}. *)
val pp_stats_by_kind : Format.formatter -> (string * stats) list -> unit

(** Global line plus the per-kind breakdown — the full [--cache-stats]
    report. *)
val pp_report : Format.formatter -> unit -> unit

(** {1 Failure model}

    Every raw filesystem operation goes through {!Fault.Fs}, so the
    whole store can be exercised under injected faults.  The real paths
    are hardened accordingly:

    - reads and writes restart on [EINTR] and continue after short
      transfers until complete;
    - a publish writes the unique temp fully, [fsync]s it, and only
      then renames — a visible entry is also a durable one;
    - transient errnos ([EIO]/[ENOSPC]/[EAGAIN]/[EBUSY]) get a bounded,
      deterministic retry (3 attempts, fixed 10ms/20ms backoff, no
      jitter) with a [cache.retry] Diag event and the {!stats.retried}
      counters before surfacing as [Store_io];
    - the first touch of a store directory reaps [.tmp-*] files whose
      writer pid is dead (or that are older than 15 minutes), one
      [cache.reap-temp] Diag event per file. *)

(** {1 fsck} *)

type fsck_report = {
  fk_scanned : int;  (** regular entries examined *)
  fk_valid : int;  (** entries whose header/CRC/key all validated *)
  fk_quarantined : (string * string) list;
      (** invalid entries moved aside, with the rejection reason —
          quarantining happens even without [~repair], mirroring what a
          reader would do on load *)
  fk_stale_temps : string list;
      (** orphaned [.tmp-*] files (writer dead, or older than
          [max_age]) *)
  fk_aged_corrupt : string list;
      (** quarantined [.corrupt-*] files older than [max_age] *)
  fk_reaped : int;  (** files deleted (only under [~repair:true]) *)
}

(** No issues: nothing quarantined, no stale temps, no aged quarantine
    files.  ([fk_reaped] does not count against cleanliness: a repaired
    store is reported on the pre-repair state.) *)
val fsck_clean : fsck_report -> bool

(** [fsck ()] scans {!dir}: every regular entry is validated against the
    key embedded in its own header (magic, version, CRC, payload decode,
    and filename = sanitized key); invalid entries are quarantined.
    Stale temps and aged [.corrupt-*] files (older than [max_age],
    default 1h) are reported, and deleted when [repair] is set.  A
    missing store directory is vacuously clean.  [Error (Store_io _)]
    only for directory/file read failures — a corrupt entry is a
    finding, not an error. *)
val fsck :
  ?repair:bool -> ?max_age:float -> unit -> (fsck_report, Diag.Error.t) result

(** Human-readable fsck summary plus one line per finding. *)
val pp_fsck_report : Format.formatter -> fsck_report -> unit
