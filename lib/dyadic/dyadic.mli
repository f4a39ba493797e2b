(** Dyadic (binary) multi-precision numbers [m * 2^e].

    This is the computational engine behind the oracle (the stand-in for
    MPFR): addition, subtraction and multiplication are exact; results are
    explicitly re-rounded to a working precision with a chosen direction,
    which is what the outward-rounded interval layer ({!Ival}) builds on. *)

type t

type dir = Down | Up
(** Rounding directions toward -infinity / +infinity. *)

val zero : t

(** A test hook. *)
val one : t

val of_int : int -> t

(** [make m e] is [m * 2^e]. *)
val make : Bigint.t -> int -> t

(** [mantissa d], [exponent d]: the normalized components ([mantissa] is
    odd unless the value is zero, in which case [exponent] is 0).
    A test hook. *)
val mantissa : t -> Bigint.t

(** A test hook. *)
val exponent : t -> int

(** [of_rat dir ~prec q] is the dyadic with at most [prec] significant bits
    nearest [q] in direction [dir]; exact when [q] is dyadic and fits. *)
val of_rat : dir -> prec:int -> Rat.t -> t

(** Exact conversion; never loses information. *)
val to_rat : t -> Rat.t

(** A test hook. *)
val is_zero : t -> bool
val sign : t -> int
val neg : t -> t
val abs : t -> t
val compare : t -> t -> int
val min : t -> t -> t
val max : t -> t -> t

(** Exact operations (the result may grow arbitrarily wide). *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val mul_2exp : t -> int -> t

(** [round dir ~prec d] keeps at most [prec] significant bits, rounding in
    direction [dir]. *)
val round : dir -> prec:int -> t -> t

(** [div dir ~prec a b] is [a / b] with [prec] significant bits, rounded in
    direction [dir].
    @raise Division_by_zero when [b] is zero. *)
val div : dir -> prec:int -> t -> t -> t

(** [pow2 k] is the dyadic [2^k]. *)
val pow2 : int -> t

(** Number of significant bits of the mantissa (0 for zero).  A test hook. *)
val numbits : t -> int

(** [log2_floor d] for [d <> 0] is [⌊log2 |d|⌋].  A test hook. *)
val log2_floor : t -> int
