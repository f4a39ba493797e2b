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
    check.  Emits a Debug {!Diag} event ["lp.solved"] with [rows],
    [columns], [pivots], [phase1_pivots] and [maxbits] (the largest
    tableau entry in bits).  A test hook. *)
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
    columns are nonbasic, and at most once each.  One Debug ["lp.solved"]
    event per call reports the final tableau (see {!maximize}; [columns]
    counts the constraint columns left in it).

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
