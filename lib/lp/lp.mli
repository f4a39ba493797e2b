(** Exact-rational linear programming.

    Substitute for SoPlex (used by the RLibm artifact): a two-phase
    simplex over {!Rat} applied to the dual of the problem, with Dantzig
    pricing that falls back to Bland's anti-cycling rule, so feasibility
    verdicts are exact and termination is guaranteed.  The dual of an
    n-variable, m-constraint LP has n rows and one column per
    constraint, so RLibm's low-dimension / many-constraint systems give
    a tableau of only (degree + 2) rows.  On top of it,
    {!solve_interval_system} implements RLibm's strategy as column
    generation: solve on a small working set of constraints, then add
    the violated ones as new columns and continue from the previous
    optimal basis — the workhorse of polynomial generation. *)

(** {1 General simplex} *)

type status =
  | Optimal of Rat.t array * Rat.t
      (** primal solution (free variables) and objective value *)
  | Infeasible
  | Unbounded

(** [maximize ~obj ~rows] solves

    {v max obj . x   s.t.   a_i . x <= b_i  for (a_i, b_i) in rows v}

    over free (sign-unrestricted) variables [x].  Every [a_i] must have
    the same length as [obj].  The dual (min b.y s.t. A^T y = obj,
    y >= 0) is what is solved: a dual optimum gives the primal one, a
    dual unbounded in phase 2 means [Infeasible], and a dual without a
    feasible point is settled as [Infeasible] or [Unbounded] by a Farkas
    check.  Emits an Info {!Diag} event ["lp.solved"] with [rows],
    [columns], [pivots], [phase1_pivots] and [seconds] (the solve's wall
    clock), plus [maxbits] (the largest tableau entry in bits, a scan
    quadratic in the tableau) when a sink listens at Debug.  A test
    hook. *)
val maximize : obj:Rat.t array -> rows:(Rat.t array * Rat.t) array -> status

(** {1 RLibm-style interval systems} *)

(** A single polynomial-output constraint: the polynomial evaluated (in
    exact arithmetic) at [x] must land in [[lo, hi]]. *)
type point = { x : Rat.t; lo : Rat.t; hi : Rat.t }

type system_result =
  | Sat of Rat.t array * int list
      (** coefficients (in the order of [powers]) and the final working-set
          indices — feed them back through [initial_working] to warm-start
          the next solve after a small perturbation of the system *)
  | Unsat

(** [solve_interval_system ~powers points] finds coefficients [c] such
    that for every point, [lo <= sum_k c_k * x^powers_k <= hi], using
    constraint generation: an initial working subset is solved with a
    maximize-the-minimum-slack objective, all points are checked against
    the exact rational solution, the most violated ones are added, and the
    loop repeats until everything is satisfied or the working set becomes
    infeasible (which proves the full system infeasible).  In the dual
    every working point is two columns; phase 1 runs once per call, and
    each later round adds the violated points' columns, priced against
    the current basis, and continues phase 2 from the previous optimum.
    Points with visibly positive slack are pruned only while both their
    columns are nonbasic, and at most once each.  One Info ["lp.solved"]
    event per call reports the final tableau (see {!maximize}; [columns]
    counts the constraint columns left in it, [seconds] the solve after
    its system was built).  The call builds a {!system} over [points]
    and runs {!solve_system}'s loop on it, so it also emits one
    ["lp.system"] event.

    [powers] lists the monomial exponents, e.g. [[|0;1;2;3|]] for a cubic
    with all terms.  At most 16 violated points, most violated first,
    join the working set per round.  [initial_working] warm-starts the
    working set (its first columns), typically from a previous [Sat].
    Every round that does not converge emits a Debug {!Diag} event
    ["lp.round"] with [round], [outcome] ([infeasible] / [violated]),
    [violations] and [working] (the working-set size after the round). *)
val solve_interval_system :
  ?initial_working:int list ->
  ?tilt:Rat.t array ->
  ?mono_bits:int ->
  powers:int array ->
  point array ->
  system_result

(** [mono_bits] rounds each monomial [x^k] to that many significant bits
    before building the LP (default: exact).  This keeps exact-rational
    tableau entries small when [x] has a long mantissa; the RLibm pipeline
    can afford it because candidate acceptance is decided by empirical
    double evaluation, never by the LP itself. *)

(** [tilt] (same length as [powers]) adds a tiny linear term over the
    coefficients to the maximize-delta objective, selecting different
    near-optimal vertices; the generation loop randomizes it to search for
    candidates whose double-precision evaluation satisfies constraints the
    default vertex misses.  When the tilted dual is infeasible on the
    initial columns (the tilt direction is unbounded on them), the call
    solves the pure maximize-delta objective instead; the Sat/Unsat
    verdict does not depend on the tilt. *)

(** [eval_poly ~powers coeffs x] is the exact rational value
    [sum_k coeffs_k * x^powers_k].  A test hook. *)
val eval_poly : powers:int array -> Rat.t array -> Rat.t -> Rat.t

(** {1 Per-piece systems over doubles}

    The RLibm pipeline solves the LP of one piece many times: every
    round of Algorithm 2, at every degree it tries.  Its points are
    doubles — reduced inputs [r] with double bounds — so each piece
    builds one {!system} from its reduced inputs and every call reads
    it.  The system holds, per point and power [p], the monomial [r^p]
    truncated toward zero to 64 significant bits (exactly
    [round_bits (Rat.pow (Rat.of_float r) p) 64], the [~mono_bits:64] of
    {!solve_interval_system}) and that value's round-to-nearest double,
    its float shadow.  Each power is one exact product of [r]'s 53-bit
    significand with the previous power (no gcd, no division); the
    rational forms of the monomials and bounds are made only for points
    that become columns or need exact confirmation, and memoized.  A
    call at a higher degree adds the missing powers.  Every build or
    extension emits an Info {!Diag} event ["lp.system"] with [points],
    [powers] (how many the system now holds) and [seconds]. *)

type system

(** [system rs] is the (still empty) system over the reduced inputs
    [rs]: the first solve builds the powers it needs. *)
val system : float array -> system

(** [solve_system ~powers sys ~idx ~lo ~hi] is {!solve_interval_system}
    [~mono_bits:64 ~powers] over the points [{x = rs.(idx.(k)); lo =
    lo.(k); hi = hi.(k)}] (k = 0 .. length idx - 1, the doubles as
    rationals): the same loop, the same result, with [Sat]'s working
    indices and [initial_working] positions in [idx].  The seeds are
    spread over the points in the order of their doubles. *)
val solve_system :
  ?initial_working:int list ->
  ?tilt:Rat.t array ->
  powers:int array ->
  system ->
  idx:int array ->
  lo:float array ->
  hi:float array ->
  system_result

(** [monomial sys i p] is point [i]'s monomial [r^p] as the LP reads
    it: the rational and its float shadow (building powers up to [p]).
    A test hook. *)
val monomial : system -> int -> int -> Rat.t * float

(** [seed_order xs] is the permutation the seed spread reads: the
    indices of [xs] heap-sorted by their doubles, [-0.] and [0.] equal —
    the outcomes [Rat.compare] gives on their rationals.  A test hook. *)
val seed_order : float array -> int array
