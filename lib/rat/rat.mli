(** Exact rational arithmetic over {!Bigint}.

    Replacement for GMP's [mpq] layer.  Values are kept in canonical form:
    the denominator is positive and coprime with the numerator; zero is
    [0/1].  Every finite IEEE double converts exactly ({!of_float}), and
    {!to_float} rounds correctly in all five standard directions, which is
    what the interval-inference and LP layers of the RLibm pipeline rely
    on. *)

type t

(** {1 Constants} *)

val zero : t
val one : t

(** A test hook. *)
val two : t

(** A test hook. *)
val half : t
val minus_one : t

(** {1 Construction} *)

(** [make num den] is the canonical rational [num/den].
    @raise Division_by_zero when [den] is zero. *)
val make : Bigint.t -> Bigint.t -> t

val of_bigint : Bigint.t -> t
val of_int : int -> t

(** [of_ints num den] is [num/den]. *)
val of_ints : int -> int -> t

(** [of_float x] is the exact rational value of the finite double [x].
    @raise Invalid_argument on NaN or infinities. *)
val of_float : float -> t

(** [of_string s] parses ["p/q"], an integer, or a decimal/scientific
    literal such as ["-1.25e-3"]. *)
val of_string : string -> t

(** [mul_pow2 q k] is [q * 2]{^ k} (k may be negative); always exact. *)
val mul_pow2 : t -> int -> t

(** {1 Accessors} *)

val num : t -> Bigint.t
val den : t -> Bigint.t

(** {1 Predicates and comparison} *)

val sign : t -> int
val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

(** A test hook. *)
val min : t -> t -> t
val max : t -> t -> t
val is_integer : t -> bool

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** @raise Division_by_zero when the divisor is zero. *)
val div : t -> t -> t

(** [inv q] is [1/q].  @raise Division_by_zero on zero. *)
val inv : t -> t

(** [pow q n] is [q]{^ n}; [n] may be negative (then [q] must be nonzero). *)
val pow : t -> int -> t

(** {1 Rounding to integers} *)

val floor : t -> Bigint.t

(** A test hook. *)
val ceil : t -> Bigint.t

(** [trunc q] rounds toward zero.  A test hook. *)
val trunc : t -> Bigint.t

(** {1 Conversion to binary floating point} *)

type round_dir = Down | Up | Nearest | Zero

(** [to_float q] is the round-to-nearest-even double closest to [q],
    with overflow to infinity and gradual underflow handled as IEEE
    binary64 does. *)
val to_float : t -> float

(** [to_float_dir dir q] rounds toward the requested direction.
    A test hook. *)
val to_float_dir : round_dir -> t -> float

(** [approx q ~bits] for [q <> 0] is [(m, e, exact)] with
    [m * 2^e <= |q| < (m + 1) * 2^e], where [m] has exactly [bits] bits;
    [exact] reports whether [|q| = m * 2^e].  This is the primitive from
    which all rounding modes are derived (floor + sticky).
    @raise Invalid_argument on zero or [bits <= 0]. *)
val approx : t -> bits:int -> Bigint.t * int * bool

(** {1 Printing} *)

(** ["p/q"] (or just ["p"] for integers). *)
val to_string : t -> string

(** Decimal expansion with [digits] fractional digits, truncated toward
    zero, e.g. [to_decimal_string ~digits:10 (of_ints 1 3) = "0.3333333333"]. *)
val to_decimal_string : digits:int -> t -> string

module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( ~- ) : t -> t
  val ( = ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
  val ( <> ) : t -> t -> bool
end
