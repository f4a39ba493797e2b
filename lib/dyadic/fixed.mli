(** Outward-rounded fixed-point intervals in native integers: the
    arithmetic of the oracle's first tier.

    An interval is a pair of native [int]s [lo <= hi] read at the fixed
    binary point {!frac_bits}: it stands for the real interval
    [\[lo·2^-frac_bits, hi·2^-frac_bits\]].  Every operation returns an
    interval that contains the exact result, rounding the low endpoint
    toward -infinity and the high endpoint toward +infinity — the
    {!Ival} contract at one fixed width, without {!Bigint}, {!Rat} or
    {!Dyadic}.  One unit in the last place ("ulp") is [2^-frac_bits].

    Magnitudes.  An endpoint is a native [int], so |endpoint| < 2^62
    (values below 2^(62 - frac_bits) = 256).  {!mul} also needs both
    operands and the result below 2^61 (values below 128) and raises
    [Invalid_argument] otherwise, as do {!of_int} and {!mul_int} on a
    result that would not fit.  {!add} and {!sub} are unchecked: callers
    keep every sum below 2^62, which the kernels in [Funcspec] do by
    restricting their input ranges. *)

(** The binary point: 54 fraction bits. *)
val frac_bits : int

type t = private { lo : int; hi : int }

(** [make lo hi] from raw endpoints (at the binary point); requires
    [lo <= hi].  For the literal constants of the kernels. *)
val make : int -> int -> t

(** Exact [n].  @raise Invalid_argument unless |n| < 2^(62 - frac_bits). *)
val of_int : int -> t

(** [of_dyadic m e] encloses [m·2^e]: exact when the value sits on the
    binary point, else its floor and ceiling there.  [None] when the
    value is not below 2^(61 - frac_bits) = 128 in magnitude. *)
val of_dyadic : int -> int -> t option

(** [of_ratio n d] encloses [n / d] for integers [0 <= n < d < 2^60]
    (floor and ceiling at the binary point, by long division). *)
val of_ratio : int -> int -> t

val add : t -> t -> t
val sub : t -> t -> t

(** Interval product, each endpoint product rounded outward at the
    binary point (a 62 × 62-bit product through 31-bit halves). *)
val mul : t -> t -> t

(** Exact product by an integer. *)
val mul_int : t -> int -> t

(** [div_int a d] for an integer [d > 0]: floor / ceiling division of
    the endpoints. *)
val div_int : t -> int -> t

(** [widen a ~below ~above] moves [lo] down by [below] ulps and [hi] up
    by [above] ulps: the truncation error of a series, added explicitly
    from a bound. *)
val widen : t -> below:int -> above:int -> t

(** Upper bound of |x| over the interval, raw. *)
val mag : t -> int

(** Exact rational endpoints of [a·2^scale]. *)
val to_rats : t -> scale:int -> Rat.t * Rat.t
