(** Outward-rounded interval arithmetic over {!Dyadic} numbers.

    Every operation takes the working precision [prec] and returns an
    interval guaranteed to contain the exact mathematical result: lower
    endpoints round toward -infinity, upper endpoints toward +infinity.
    This gives the oracle rigorous enclosures without error-term
    bookkeeping. *)

type t = private { lo : Dyadic.t; hi : Dyadic.t }

(** [make lo hi] requires [lo <= hi].  A test hook. *)
val make : Dyadic.t -> Dyadic.t -> t

(** Degenerate (exact) interval. *)
val point : Dyadic.t -> t

val of_int : int -> t

(** [of_rat ~prec q] encloses the rational [q] within one ulp at [prec]. *)
val of_rat : prec:int -> Rat.t -> t

(** Exact rational endpoints. *)
val to_rats : t -> Rat.t * Rat.t

val lo : t -> Dyadic.t
val hi : t -> Dyadic.t

val add : prec:int -> t -> t -> t
val sub : prec:int -> t -> t -> t
val mul : prec:int -> t -> t -> t

(** @raise Division_by_zero when the divisor interval contains zero. *)
val div : prec:int -> t -> t -> t

(** Exact scaling by a power of two. *)
val mul_2exp : t -> int -> t

(** [widen iv err] grows the interval by the absolute error bound [err >= 0]
    on both sides. *)
val widen : t -> Dyadic.t -> t

(** Upper bound of [|x|] over the interval. *)
val mag_hi : t -> Dyadic.t

