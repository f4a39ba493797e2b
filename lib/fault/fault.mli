(** Deterministic fault-injection substrate for the storage stack.

    Every raw filesystem operation the artifact store performs goes
    through {!Fs}.  In production {!Fs} is a passthrough (one atomic
    load of overhead per call).  Under test, a declarative {!plan} is
    armed and selected calls fail with a chosen [Unix_error], perform a
    short or torn write, or abort the process outright — which is how
    the crash-consistency claims of [lib/cache] / [lib/pipeline] are
    exercised rather than asserted.

    {b Determinism.}  A plan is pure data: rules fire on the N-th call
    matching an operation selector, counted from arming the plan.  There is no
    randomness anywhere, so a run under a given plan replays
    bit-identically — which is what makes kill-point sweeps ("abort at
    mutating site N for every N") exhaustive rather than sampled.
    Counters are process-wide and mutate under a lock; plans are only
    meaningful when the injected operations happen on one domain (true
    for the store: publishes and loads run on the driver domain).

    {b Site numbering.}  The [Mut] selector counts only mutating
    operations (write-opens, writes, fsyncs, renames, mkdirs).
    Read traffic never shifts a [Mut] site, so a kill-point sweep keyed
    on [mut\@N] is stable against warm/cold load differences. *)

(** Operation classes, mirroring {!Fs} one-to-one ([Open] covers both
    read- and write-opens; only the latter is mutating). *)
type op = Open | Read | Write | Fsync | Rename | Mkdir

(** Which calls a rule watches: every call, every mutating call, or one
    operation class. *)
type sel = Any | Mut | Op of op

type action =
  | Fail of Unix.error
      (** The call raises [Unix_error] without touching the file. *)
  | Short of int
      (** A write consumes at most N bytes (a genuine short write — the
          caller's loop must continue); a read returns at most N bytes.
          N must be >= 1.  On other operations acts as [Fail EIO]. *)
  | Torn of int
      (** A write writes exactly its first N bytes for real, then
          raises [EIO] — the torn-page model.  On other operations acts
          as [Fail EIO]. *)
  | Abort
      (** The process exits immediately via [Unix._exit]
          {!abort_exit_code}: no [at_exit], no channel flushing — the
          closest in-process approximation of [kill -9] at this site. *)

(** One rule: fire [action] on the [nth] call (1-based, counted from
    arming the plan) matching [sel]; a [sticky] rule keeps firing on every
    matching call from the [nth] on (persistent ENOSPC, dead disk). *)
type rule = { r_sel : sel; r_nth : int; r_sticky : bool; r_action : action }

type plan = rule list

(** [parse s] reads the compact spec syntax used by [RLIBM_FAULT_PLAN]:
    comma-separated rules [SEL\@N\[+\]=ACTION] with [SEL] one of
    [any|mut|open|read|write|fsync|rename|mkdir], [+] marking a
    sticky rule, and [ACTION] one of
    [eio|enospc|eintr|eagain|abort|short:N|torn:N].
    E.g. ["write\@1+=enospc"] (every write fails),
    ["mut\@7=abort"] (kill the process at mutating site 7),
    ["write\@2=torn:5"] (second write tears after 5 bytes).  A test hook. *)
val parse : string -> (plan, string) result

(** Render a plan back to the spec syntax ([parse (to_spec p)] = [Ok p]
    up to whitespace) — for handing plans to child processes via
    [RLIBM_FAULT_PLAN].  A test hook. *)
val to_spec : plan -> string

(** [with_plan p f] runs [f] under [p], restoring the previous state
    (also on exceptions).  Counters restart from zero at entry.
    A test hook. *)
val with_plan : plan -> (unit -> 'a) -> 'a

(** Mutating-operation calls observed since the plan was last armed
    (0 when none ever was).  Arming the empty plan [\[\]] turns the
    substrate into a pure site census: nothing fails, but the counter
    reports how many kill-points a run exposes.  A test hook. *)
val mut_sites : unit -> int

(** The exit status {!Abort} terminates the process with.  A test hook. *)
val abort_exit_code : int

(** The effects interface the store's raw I/O goes through.  Every
    function behaves exactly like its [Unix] counterpart when no rule
    fires; the environment plan ([RLIBM_FAULT_PLAN]) is read lazily at
    the first call made outside {!with_plan}.  [close] is
    deliberately not injectable: a close failure after fsync carries no
    data-loss semantics this substrate models. *)
module Fs : sig
  (** [O_RDONLY | O_CLOEXEC] open. *)
  val open_read : string -> Unix.file_descr

  (** [O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC] open with the given
      permissions — the unique-temp publish open.  Mutating. *)
  val open_excl : string -> int -> Unix.file_descr

  val read : Unix.file_descr -> bytes -> int -> int -> int

  (** Mutating. *)
  val write : Unix.file_descr -> bytes -> int -> int -> int

  (** Mutating. *)
  val fsync : Unix.file_descr -> unit

  (** Mutating. *)
  val rename : string -> string -> unit

  (** Mutating. *)
  val mkdir : string -> int -> unit

  val close : Unix.file_descr -> unit
end
