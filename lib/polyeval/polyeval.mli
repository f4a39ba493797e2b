(** Polynomial evaluation schemes for RLibm-generated polynomials: Horner's
    rule (the RLibm baseline), Knuth's coefficient adaptation (§3), Estrin's
    parallel scheme (§4) and Estrin with fused multiply-add — the four
    configurations evaluated in the paper — plus Horner-with-FMA as an
    ablation.

    A polynomial is given by its dense coefficients in increasing-power
    order ([c.(k)] multiplies [x^k]).  {!compile} turns (scheme, coeffs)
    into the scheme's constants — the coefficients themselves, or Knuth's
    adapted coefficients — and its {!Expr} DAG, the reference semantics.
    {!eval_into} is the one runnable evaluator: it agrees bit-for-bit
    with the DAG (enforced by the test suite), and both the validation
    step of the generation pipeline and the serving kernel run it, so
    generation sees exactly what ships. *)

type scheme = Horner | HornerFma | Knuth | Estrin | EstrinFma

(** The four configurations of the paper, in Table 1/2 order. *)
val paper_schemes : scheme list

val all_schemes : scheme list
val scheme_name : scheme -> string
val scheme_of_name : string -> scheme option

(** Layout read by C.  The batch kernel (genlibm_stubs.c) reads each
    piece's [scheme] (field 0) and [data] (field 2) straight from the
    record, and a scheme reaches C as its constructor index, [Horner] = 0
    to [EstrinFma] = 4 (polyeval_stubs.c's scheme codes); its sanitized
    build checks that the record has 4 fields.  Reordering the
    constructors or these two fields changes what C reads. *)
type compiled = {
  scheme : scheme;
  degree : int;
  data : float array;
      (** dense coefficients, or Knuth's adapted coefficients *)
  expr : Expr.t;  (** reference semantics, cost model and codegen input *)
}

(** [compile scheme coeffs] prepares a polynomial for [scheme].  Returns [None] when the
    scheme cannot handle the polynomial: no scheme runs above degree 6
    (RLibm never generates higher degrees, and {!eval_into} has no body
    for them); Knuth adaptation is defined for degrees 4–6 only (lower
    ones are cheap already) and requires the adapted coefficients to be
    finite.  {!scheme_expr} builds the DAG of any degree. *)
val compile : scheme -> float array -> compiled option

(** [of_data scheme data] rebuilds a compiled evaluator from the [data]
    array of a previous compilation (e.g. loaded back from the persistent
    artifact store).  Unlike {!compile}, [data] holds the scheme's
    {e compiled} constants: for Knuth these are the already-adapted
    coefficients, which are installed directly instead of re-running the
    adaptation.  The rebuilt polynomial is bit-identical to the original.
    [None] when the data cannot belong to a valid compilation of the
    scheme (any degree above 6, Knuth outside degrees 4–6, non-finite
    Knuth constants). *)
val of_data : scheme -> float array -> compiled option

val cost : compiled -> Expr.cost

(** {1 Batch evaluators}

    The only runnable evaluator: generation validates candidates with
    it, and the serving kernel runs its C sweep ([rlibm_sweep]) per
    piece.  [eval_into scheme data ~src ~dst
    ~lo ~hi] evaluates the scheme's polynomial — [data] is a
    {!compiled}[.data] array: dense coefficients, or Knuth's adapted
    constants — on [src.(i)] for every [i] in [\[lo, hi)], writing the
    results to [dst.(i)].  It runs in a [[@@noalloc]] C stub
    (polyeval_stubs.c) with one straight-line body per (scheme, length)
    that performs the DAG's operations in the DAG's order, compiled with
    contraction off, so every result is bit-for-bit [Expr.eval_float
    (scheme_expr scheme ~degree) ~data src.(i)] — the DAG (enforced by
    the test suite).  Each [Fma] node is one fused operation: the
    hardware instruction on x86_64 CPUs with FMA, libm's correctly
    rounded [fma] elsewhere.  Nothing is allocated per element or per
    call.
    @raise Invalid_argument for data longer than 7 (degree above 6, which
    generation never produces), and for [Knuth] data outside lengths
    5–7. *)
val eval_into :
  scheme ->
  float array ->
  src:floatarray ->
  dst:floatarray ->
  lo:int ->
  hi:int ->
  unit

(** {1 Knuth coefficient adaptation} *)

(** [adapt_knuth coeffs] computes the adapted coefficients for a dense
    polynomial of degree 4, 5 or 6 (equations (4), (6)–(7), (9)–(12)).
    Degrees 5 and 6 solve a cubic with {!Cubic.real_root} in double
    precision, exactly as the paper's prototype does.  [None] when the
    degree is unsupported, the leading coefficient is zero, or the
    adaptation produces non-finite values.  A test hook. *)
val adapt_knuth : float array -> float array option

(** {1 Scheme DAGs} *)

(** [scheme_expr scheme ~degree] is the evaluation DAG; for [Knuth] the
    constants are the adapted coefficients, otherwise the dense ones.
    @raise Invalid_argument for [Knuth] with degree outside 4–6. *)
val scheme_expr : scheme -> degree:int -> Expr.t

(** Exact algebraic value computed by a compiled evaluator (no rounding);
    for Horner/Estrin variants this equals the dense polynomial.
    A test hook. *)
val eval_exact : compiled -> Rat.t -> Rat.t
