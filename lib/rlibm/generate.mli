(** Algorithm 2 of the paper: the generate / adapt / validate / constrain
    loop with fast polynomial evaluation integrated into generation.

    Per piece and degree, the solver iterates: solve the LP over the
    current reduced intervals; round the rational coefficients to doubles
    and compile them for the requested scheme (for Knuth this runs the
    coefficient adaptation); evaluate the compiled scheme — the exact
    sequence of double operations that ships — on every reduced input;
    shrink the violated side of failing constraints by one double ulp and
    re-solve.  Constraints that cannot be satisfied become special-case
    inputs; the loop keeps the candidate with the fewest violated inputs
    (the cheap analogue of the artifact's minimal-specials search, helped
    by a random objective tilt that walks near-optimal LP vertices).
    {!solve} drives the per-piece degree escalation over a built
    constraint set; {!assemble} turns its closure-free result into a
    runnable function.  The staged pipeline (lib/pipeline) sequences
    them after the constraint stage. *)

(** [first_round_lp ~degree points] is round 1 of {!solve}'s per-piece
    loop: the LP over the points' original intervals, with no warm-start
    working set and no objective tilt.  It depends only on [points] and
    [degree] — not on the scheme, and not on the tilt RNG — so every
    scheme of a function can share one solve per (piece, degree). *)
val first_round_lp :
  degree:int -> Constraints.point array -> Lp.system_result

type generated = {
  cfg : Config.t;
  family : Reduction.t;
  decode : Reduction.decoder;
      (** the batch kernel's decode table for [cfg.tin] (the reduction
          sees only the output format) *)
  scheme : Polyeval.scheme;
  pieces : Polyeval.compiled array;
      (** one compiled evaluator per piece: the only copy of its scheme
          and coefficients, which the scalar reference and the batch
          kernel both read, and the kernel's piece count *)
  specials : (int64, float) Hashtbl.t;
      (** input bits -> stored double result (decoded oracle value) *)
  spec_keys : int array;
      (** the same special inputs as native ints (patterns fit 63 bits),
          sorted ascending — the binary-search probe of the hot path *)
  spec_vals : float array;  (** results matching [spec_keys] by index *)
  degrees : int array;  (** per piece *)
  rounds : int array;  (** generation rounds used, per piece *)
  n_constraints : int array;  (** merged constraint points, per piece *)
}

(** Number of special-case inputs (the Table 1 column). *)
val n_specials : generated -> int

(** Closure-free product of the polynomial stage — what the staged
    pipeline persists.  [sv_data] holds each piece's {e compiled}
    constants ({!Polyeval.compiled}[.data]; Knuth's adapted coefficients
    for the Knuth scheme); {!Polyeval.of_data} rebuilds bit-identical
    evaluators from them. *)
type solved = {
  sv_data : float array array;  (** per piece *)
  sv_degrees : int array;
  sv_rounds : int array;
  sv_n_constraints : int array;
  sv_specials : (int64 * float) list;
      (** special-case inputs in discovery order: the constraint stage's
          immediate specials first, then each piece's leftovers *)
}

(** [solve ~cfg ~scheme ~func ~built ~oracle ()] runs the per-piece
    degree escalation over an already-built constraint set.  [oracle] is
    only read: it supplies the stored result of every input that becomes
    special (an input it lacks is recomputed).  A pure stage body:
    all randomness is seeded per (piece, degree), so the result is a
    deterministic function of the arguments at every job count.
    [Error] is typed: [Lp_infeasible] when the terminal degree's LP
    rejected the original intervals outright, [Budget_exhausted] when
    the degree/round/special budgets ran out.

    Each degree tried emits an Info {!Diag} event ["gen.degree"] with
    [func], [scheme], [piece], [degree] and [constraints]; every round
    that does not finish the piece, a Debug event ["gen.round"] with
    [degree], [round], [outcome] ([infeasible] / [violated]) and
    [violated] (inputs the candidate missed).

    [first_round ~piece ~degree points] supplies each round-1 LP result
    (see {!first_round_lp}, the default); the staged pipeline passes a
    load-or-compute through its store, so a function's second scheme
    reuses the first scheme's solves. *)
val solve :
  ?first_round:
    (piece:int -> degree:int -> Constraints.point array -> Lp.system_result) ->
  cfg:Config.t ->
  scheme:Polyeval.scheme ->
  func:Oracle.func ->
  built:Constraints.build_result ->
  oracle:(int64, int64) Hashtbl.t ->
  unit ->
  (solved, Diag.Error.t) result

(** The range reduction [cfg] generates [func] over
    ({!Reduction.make} with [cfg]'s target format, pieces and table
    size).  The logarithm table is [table] when given (a stored copy),
    otherwise the memoized {!Reduction.log_table}.  Every stage and
    {!assemble} build the reduction here, so this is where a library
    caller's input format is checked.
    @raise Invalid_argument when [cfg.tin] fails {!Softfp.fits_double}
    (checked before any oracle evaluation) or [table] is not
    [2^cfg.table_bits] long. *)
val family : ?table:float array -> cfg:Config.t -> Oracle.func -> Reduction.t

(** [assemble ?table ~cfg ~scheme ~func sv] rebuilds the runnable
    implementation from the closure-free artifact: recompiles each piece
    and rebuilds the range reduction ({!family} with [table]).
    @raise Invalid_argument when [sv]'s data cannot compile for
    [scheme] (a stale or foreign artifact) or has other than
    [cfg.pieces] pieces, or as {!family} does. *)
val assemble :
  ?table:float array ->
  cfg:Config.t ->
  scheme:Polyeval.scheme ->
  func:Oracle.func ->
  solved ->
  generated
