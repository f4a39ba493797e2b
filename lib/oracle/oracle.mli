(** Correctly rounded oracle for the registered elementary functions.

    Substitute for the MPFR-based oracle (and for the precomputed oracle
    files of the artifact), in two tiers.  The first encloses [f x] in
    native fixed point ({!Fixed}, 54 fraction bits) through the
    registry's per-function kernel and rounds both endpoints with
    {!Softfp.of_dyadic}: no {!Bigint}, {!Rat} or {!Dyadic} arithmetic.
    It applies to inputs that are small dyadics [m·2^e] ([|m| < 2^53],
    every binary16/binary32 pattern) inside the kernel's proven range,
    and it decides when both endpoints round to the same bits.
    Otherwise the second tier runs: rigorous outward-rounded dyadic
    enclosures ({!Ival}) over the exact rational input, and a Ziv loop
    that raises the working precision until the enclosure rounds
    unambiguously in the requested format and rounding mode.  Both tiers
    enclose the true value, so they can only agree.  Values that
    are exactly representable (where the Ziv loop cannot terminate) are
    detected algebraically: by the Lindemann–Weierstrass and
    Gelfond–Schneider theorems, [exp x] is rational only at [x = 0],
    [2^x]/[10^x] only at integer [x], [log x] only at [x = 1], and
    [log2 x]/[log10 x] only at exact powers of the base.

    All per-function knowledge (domains, exact-value rules, enclosure
    kernels, reduction families, presets) lives in the {!Funcspec}
    registry; this module re-exports the function type and wraps the
    registry's closures with the function-agnostic Ziv machinery. *)

type func = Funcspec.func = Exp | Exp2 | Exp10 | Log | Log2 | Log10

val all : func list
val name : func -> string
val of_name : string -> func option

(** [domain_ok f x]: [x] is in the open domain of [f] (positive reals for
    the logarithms, all rationals otherwise). *)
val domain_ok : func -> Rat.t -> bool

(** [exact_value f x] is [Some y] when [f x] is exactly the rational [y]. *)
val exact_value : func -> Rat.t -> Rat.t option

(** [enclosure f x ~prec] is a rigorous interval around [f x] whose width
    is approximately [2^-prec] (absolute, relative to the natural scale of
    the reduced computation).
    @raise Invalid_argument when [x] is outside the domain, or when the
    result's binary exponent is astronomically large (callers must use
    {!correctly_round}, which short-circuits those cases). *)
val enclosure : func -> Rat.t -> prec:int -> Ival.t

(** [fast_enclosure f x] is the first tier's enclosure of [f x] as exact
    rational endpoints, or [None] when the first tier does not apply
    ([x] is not a small dyadic, or outside the kernel's proven range).
    @raise Invalid_argument when [x] is outside the domain. *)
val fast_enclosure : func -> Rat.t -> (Rat.t * Rat.t) option

(** [correctly_round f x ~fmt ~mode] is the correctly rounded result of
    [f x] in the given format and rounding mode, handling overflow,
    underflow and exactly representable results.
    @raise Invalid_argument when [x] is outside the domain of [f]. *)
val correctly_round :
  func -> Rat.t -> fmt:Softfp.fmt -> mode:Softfp.mode -> Softfp.bits

(** A rounder memoizes the enclosures of one [f x] (the fast one first,
    then the dyadic ones per precision), making it cheap to round the
    same value into many formats and rounding modes — the access pattern
    of the multi-representation verification harness.  The exact value
    is computed on first need, so an input the range shortcut decides
    never materializes it (10^x at a large integer x).  A rounder is not
    safe to share across domains. *)
type rounder

(** @raise Invalid_argument when [x] is outside the domain of [f]. *)
val make_rounder : func -> Rat.t -> rounder

(** What decided a result. *)
type tier =
  | Range_shortcut
      (** the exponentials' overflow/underflow shortcut, from the
          input's magnitude alone *)
  | Exact  (** an exactly representable value, found algebraically *)
  | Fast  (** the native fixed-point first tier *)
  | Ziv of int
      (** the dyadic Ziv loop, at this working precision (a fallback
          from the first tier) *)

(** ["range"], ["exact"], ["fast"], ["ziv80"], ... *)
val tier_name : tier -> string

(** [decide r ~fmt ~mode] is the correctly rounded result with the tier
    that decided it; {!round_with} and {!correctly_round} are its first
    component. *)
val decide :
  rounder -> fmt:Softfp.fmt -> mode:Softfp.mode -> Softfp.bits * tier

val round_with : rounder -> fmt:Softfp.fmt -> mode:Softfp.mode -> Softfp.bits

(** [float64 f x] is the round-to-nearest-even double result of [f x] for a
    finite double [x] in the domain — a drop-in correctly rounded scalar
    reference for tests and for range-reduction constants. *)
val float64 : func -> float -> float

(** [ln2 ~prec] and [ln10 ~prec]: cached enclosures of the constants.
    A test hook. *)
val ln2 : prec:int -> Ival.t

(** A test hook. *)
val ln10 : prec:int -> Ival.t
