(** Unified diagnostics substrate: the typed error domain shared by every
    layer's [Result]-typed public API, and the structured trace/event
    stream those layers emit progress on.

    The two halves solve the same problem from both ends.  Errors as
    {e data}: a distributed shard driver must distinguish "shard already
    published" from "store corrupt" from "LP infeasible" without parsing
    stderr, so [Cache], [Pipeline], [Serve] and [Funcspec] all speak
    {!Error.t} and exceptions survive only at the [bin/]–[bench/]
    boundary, where [Cli] renders them uniformly with {!Error.exit_code}.
    Progress as {e data}: stage begin/end with timing and hit/rebuilt
    status, cache hit/miss/corrupt-quarantined, shard publish/load/done,
    parallel fan-out and serve batch evals are emitted as typed records
    through pluggable {!sink}s — none by default beyond a warn-level
    stderr sink, a human-readable stderr sink at [--log-level], and a
    schema-versioned JSONL trace file via [--trace FILE].  This is the
    only progress channel: no layer takes a string-logging callback.
    The generate / validate / constrain loop speaks four events of its
    own — ["gen.degree"] (Info: func, scheme, piece, degree,
    constraints), ["gen.round"] (Debug: degree, round, outcome
    [infeasible|violated], violated), ["lp.round"] (Debug: round,
    outcome, violations, working) — the oracle speaks ["oracle.ziv"]
    (Info: func, inputs, fast, analytic, fallbacks, [ziv<prec>] per
    fallback level) once per evaluated range, and snapshot resolution
    speaks ["serve.snapshot"] (Info: key, status
    [loaded|persisted|stale|mismatch|rejected]).  What the old
    [--verbose] flags printed is [--log-level info] (or [debug] for
    the per-round lines).

    {b Determinism.}  Sinks observe the computation; they never influence
    it.  No artifact byte, store key, or stdout product line may depend
    on which sinks are installed or what level they listen at.

    {b Zero-cost when off.}  {!event} and {!span} check a single
    [Atomic] threshold before touching their field thunks; with no sink
    listening at the event's level, the cost is one atomic load and the
    fields are never computed. *)

(** {1 Typed error domain} *)

module Error : sig
  (** Every failure class a public API in this codebase can report.
      Function and scheme identities are carried as strings so this
      module stays a leaf: it must be usable from [lib/cache] and
      [lib/lp] without dragging in [Oracle] or [Polyeval]. *)
  type t =
    | Store_io of { path : string; detail : string }
        (** The artifact store could not read or write [path]
            (permissions, disk full, path component not a directory). *)
    | Corrupt_artifact of { kind : string; key : string; reason : string }
        (** A store entry failed header/checksum/decode validation; the
            file has been quarantined aside for post-mortem. *)
    | Key_mismatch of { kind : string; key : string }
        (** A store entry's embedded key disagrees with the key it was
            loaded under — a collision or a crafted rename. *)
    | Stage_conflict of { stage : string; key : string; detail : string }
        (** A persisted stage artifact is incompatible with the stage
            that tried to consume it (layout-version drift that escaped
            the key discipline, stale piece data). *)
    | Lp_infeasible of {
        func : string;
        scheme : string;
        piece : int;
        degree : int;
      }
        (** The LP itself was infeasible at [degree] — no polynomial of
            that degree satisfies the (reduced) constraints. *)
    | Budget_exhausted of {
        func : string;
        scheme : string;
        piece : int;
        max_degree : int;
      }
        (** Generation ran out of degree/round/special budget before
            finding a polynomial. *)
    | Verification_failed of {
        func : string;
        scheme : string;
        wrong34 : int;
        wrong_narrow : int;
      }
        (** Exhaustive verification found inputs whose result is not
            correctly rounded. *)
    | Bad_config of { what : string }
        (** A configuration or snapshot spec is self-inconsistent
            (duplicate function in a snapshot, contradictory knobs). *)
    | Bad_spec of { name : string; suggestion : string option }
        (** [name] names no known function; [suggestion] is the closest
            registered name, if one is close enough to be worth
            offering. *)
    | Shard_range of { index : int; count : int }
        (** A shard request is outside the grid: [count < 1], or
            [index] not in [\[0, count)]. *)

  (** Stable kebab-case class label ("store-io", "lp-infeasible", …) for
      traces and machine consumers.  A test hook. *)
  val label : t -> string

  (** One-line human rendering. *)
  val to_string : t -> string

  (** The process exit code [Cli] maps this error to at the executable
      boundary: bad-spec/config/shard-range → 2, store I/O → 3,
      corrupt/key-mismatch → 4, stage conflict → 5, LP infeasible or
      budget exhausted → 6, verification failure → 7. *)
  val exit_code : t -> int
end

(** {1 Levels} *)

(** [Quiet] is a threshold only — no event carries it. *)
type level = Quiet | Error | Warn | Info | Debug

val level_of_string : string -> (level, Error.t) result
val level_to_string : level -> string

(** {1 Structured events} *)

(** Field values; kept first-order so every sink can render them. *)
type value = Bool of bool | Int of int | Float of float | String of string

type binding = string * value

(** One emitted record.  [ev_span]/[ev_parent] encode nesting: a span's
    begin/end records carry their own id in [ev_span] and the enclosing
    span in [ev_parent]; a plain event carries the enclosing span in
    [ev_parent] only. *)
type ev = {
  ev_ts : float;  (** [Unix.gettimeofday] at emission *)
  ev_level : level;
  ev_name : string;  (** dotted, e.g. ["cache.hit"], ["stage.end"] *)
  ev_span : int option;
  ev_parent : int option;
  ev_fields : binding list;
}

(** [enabled l] is true when some installed sink listens at level [l].
    One atomic load; the guard that keeps disabled diagnostics out of
    hot paths.  A test hook. *)
val enabled : level -> bool

(** [event ?level name fields] emits a record through every sink
    listening at [level] (default [Info]).  [fields] is forced only when
    {!enabled}; keep anything expensive inside it. *)
val event : ?level:level -> string -> (unit -> binding list) -> unit

(** [span ?level name fields ?result body] runs [body] inside a span:
    when enabled, a [name ^ ".begin"] record (with [fields ()]) is
    emitted before and a [name ^ ".end"] record after, carrying
    ["seconds"], ["ok"], and — on success — [result v].  If [body]
    raises, the end record has [ok=false] and an ["error"] field, and
    the exception is re-raised.  When no sink listens, [body] runs
    bare.  Nesting is tracked per domain. *)
val span :
  ?level:level ->
  string ->
  (unit -> binding list) ->
  ?result:('a -> binding list) ->
  (unit -> 'a) ->
  'a

(** {1 Sinks} *)

type sink

(** Human-readable one-line-per-event rendering to stderr. *)
val stderr_sink : min_level:level -> sink

(** JSONL trace file: a schema-versioned header object on the first line
    (modeled on the bench envelope: [schema_version], [kind],
    [timestamp], [host], [jobs]), then one JSON object per record.
    Flushed and closed at process exit.  Raises nothing: open failures
    return an [Error]. *)
val trace_sink :
  ?min_level:level -> ?jobs:int -> string -> (sink, Error.t) result

(** In-memory capture, for tests: returns the sink and a function
    draining the records captured so far (in emission order).  A test hook. *)
val memory_sink : ?min_level:level -> unit -> sink * (unit -> ev list)

(** Current trace schema version, embedded in every trace header.
    A test hook. *)
val trace_schema_version : int

(** Replace the installed sinks (atomically recomputes the {!enabled}
    threshold).  The default installation is [stderr_sink ~min_level:Warn]. *)
val set_sinks : sink list -> unit

(** Run [f] with [sinks] installed, restoring the previous set on exit
    (also on exceptions).  A test hook. *)
val with_sinks : sink list -> (unit -> 'a) -> 'a
