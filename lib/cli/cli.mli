(** Command-line plumbing shared by [bin/rlibm_gen] and [bench/main]:
    the function / scheme / format converters, the [-j N] fan-out knob,
    the persistent-store knobs and the diagnostics knobs, defined once as
    Cmdliner terms so the two entry points cannot drift apart. *)

(** {1 Cmdliner converters and terms} *)

val scheme_conv : Polyeval.scheme Cmdliner.Arg.conv
(** Parses [horner], [horner-fma], [knuth], [estrin], [estrin-fma]. *)

val func_arg : Oracle.func option Cmdliner.Term.t
(** [--func]/[-f], optional (commands that require it check themselves;
    commands like [warm] treat absence as "every function"). *)

val func_list_arg : Oracle.func list Cmdliner.Term.t
(** Repeatable [--func]/[-f]; the empty list means "every function"
    (commands decide — [serve] snapshots all six). *)

val scheme_arg : Polyeval.scheme Cmdliner.Term.t
(** [--scheme]/[-s], default {!Polyeval.EstrinFma}. *)

val ebits_arg : int Cmdliner.Term.t
(** [--ebits], default 5 (the reduced-width universe). *)

val prec_arg : int Cmdliner.Term.t
(** [--prec], default 8. *)

val jobs_arg : int option Cmdliner.Term.t
(** [-j]/[--jobs]; [None] falls back to {!Parallel.default_jobs}
    ([RLIBM_JOBS] if set and valid, else the core count) — the flag
    always wins over the environment. *)

val shards_arg : int option Cmdliner.Term.t
(** [--shards S]: split the oracle stage into [S] content-keyed shard
    artifacts; [None] means unsharded. *)

val shard_arg : (int * int) option Cmdliner.Term.t
(** [--shard K/S]: warm exactly oracle shard [K] of [S] and stop. *)

val resolve_shards :
  shards:int option -> shard:(int * int) option -> int * int option
(** Reconcile [--shards] and [--shard K/S] into
    [(shard_count, only_shard)]: the spec's [S] implies the count and
    must not contradict an explicit [--shards]; exits with code 2 on a
    contradiction or a non-positive count. *)

val cache_dir_arg : string option Cmdliner.Term.t
(** [--cache-dir DIR]; overrides [RLIBM_CACHE_DIR]. *)

val cache_stats_arg : bool Cmdliner.Term.t
(** [--cache-stats]: report store counters on stderr after the run. *)

(** {1 Diagnostics} *)

val log_level_arg : Diag.level Cmdliner.Term.t
(** [--log-level LEVEL], default {!Diag.Warn}: verbosity of the
    human-readable diagnostic stream on stderr — the one progress
    channel.  [info] shows stage, store and shard activity,
    ["gen.degree"], ["lp.system"], ["lp.solved"] and
    ["serve.snapshot"]; [debug] adds the per-round ["gen.round"] and
    ["lp.round"] events. *)

val trace_arg : string option Cmdliner.Term.t
(** [--trace FILE]: also write every diagnostic event as JSON Lines to
    [FILE] (debug granularity, independent of [--log-level]). *)

val install_diag :
  ?jobs:int -> level:Diag.level -> trace:string option -> unit -> unit
(** Install the diag sinks an executable run asked for: a stderr sink at
    [level] (none for {!Diag.Quiet}) plus, when [trace] is set, a JSONL
    trace sink ([jobs] lands in the trace header).  An unopenable trace
    file exits via {!exit_error}. *)

val exit_error : Diag.Error.t -> 'a
(** The uniform executable-boundary rendering: ["rlibm: <message>"] on
    stderr, then [exit] with {!Diag.Error.exit_code} (bad spec / config /
    shard range → 2, store I/O → 3, corrupt artifact / key mismatch → 4,
    stage conflict → 5, LP infeasible / budget exhausted → 6,
    verification failure → 7). *)

(** {1 Effects} *)

val set_jobs : int option -> unit
(** Size the {!Parallel} pool ([None] = all cores). *)

val set_cache_dir : string option -> unit
(** Point {!Cache} at a directory ([None] = leave as configured). *)

val report_cache_stats : bool -> unit
(** When [true], print the global counters and the per-artifact-kind
    breakdown ({!Cache.pp_report}) to stderr. *)
