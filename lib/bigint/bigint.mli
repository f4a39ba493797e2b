(** Arbitrary-precision signed integers.

    This module is a from-scratch replacement for GMP's [mpz] layer (the
    sealed build environment provides no [zarith]).  Values are immutable
    sign-magnitude numbers stored as little-endian arrays of 30-bit limbs.

    All operations are total unless documented otherwise; division by zero
    raises [Division_by_zero]. *)

type t

(** {1 Constants} *)

val zero : t
val one : t

(** A test hook. *)
val two : t

(** A test hook. *)
val minus_one : t

(** A test hook. *)
val ten : t

(** {1 Conversions} *)

(** [of_int n] is the big integer equal to the native integer [n]. *)
val of_int : int -> t

(** [to_int x] is [Some n] when [x] fits in a native [int].  A test hook. *)
val to_int : t -> int option

(** [to_int_exn x] is [x] as a native [int].
    @raise Failure when [x] does not fit. *)
val to_int_exn : t -> int

(** [of_string s] parses an optionally signed decimal literal.  Underscores
    are permitted between digits.  A ["0x"]/["0X"] prefix selects
    hexadecimal.
    @raise Invalid_argument on malformed input. *)
val of_string : string -> t

(** [to_string x] is the decimal representation of [x]. *)
val to_string : t -> string

(** [to_float x] is the correctly rounded (round-to-nearest-even) double
    nearest to [x]. *)
val to_float : t -> float

(** {1 Predicates and comparisons} *)

val sign : t -> int
val is_zero : t -> bool
val is_one : t -> bool
val is_even : t -> bool
val is_odd : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

(** A test hook. *)
val min : t -> t -> t

(** A test hook. *)
val max : t -> t -> t

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t

(** A test hook. *)
val sub : t -> t -> t
val mul : t -> t -> t
val succ : t -> t

(** A test hook. *)
val pred : t -> t

(** A test hook. *)
val mul_int : t -> int -> t

(** [divmod a b] is [(q, r)] with [a = q*b + r], [q] truncated toward zero
    and [sign r = sign a] (or [r = 0]).  Matches C99 / OCaml [( / )] and
    [(mod)] semantics.
    @raise Division_by_zero when [b] is zero. *)
val divmod : t -> t -> t * t

val div : t -> t -> t

(** A test hook. *)
val rem : t -> t -> t

(** [fdiv a b] is the floor division [⌊a / b⌋]. *)
val fdiv : t -> t -> t

(** [cdiv a b] is the ceiling division [⌈a / b⌉]. *)
val cdiv : t -> t -> t

(** [fdivmod a b] is [(q, r)] with [q = fdiv a b] and [r = a - q*b]
    (so [0 <= r < |b|] when [b > 0]).  A test hook. *)
val fdivmod : t -> t -> t * t

(** [pow x n] is [x]{^ n} for [n >= 0].
    @raise Invalid_argument when [n < 0]. *)
val pow : t -> int -> t

(** [pow2 n] is 2{^ n} for [n >= 0]. *)
val pow2 : int -> t

(** [gcd a b] is the greatest common divisor of [|a|] and [|b|].  The
    result is never negative, [gcd a 0 = |a|], and [gcd 0 0 = 0].

    Lehmer's algorithm: Euclid's quotients are computed on the leading
    60 bits of the operands, with cofactors of at most 2{^ 31}.  One
    linear-combination pass over the 30-bit limbs then applies each
    batch of quotients.  When the operand sizes differ by more than a
    limb, or when the leading bits cannot settle even the first
    quotient, one full division step runs instead.  Native-int Euclid
    finishes once both operands fit in 2 limbs. *)
val gcd : t -> t -> t

(** {1 Bit-level operations} *)

(** [shift_left x k] is [x * 2]{^ k}.  [k >= 0]. *)
val shift_left : t -> int -> t

(** [shift_right x k] is [⌊x / 2]{^ k}[⌋] (arithmetic shift: floors toward
    negative infinity).  [k >= 0]. *)
val shift_right : t -> int -> t

(** [numbits x] is the position of the highest set bit of [|x|] plus one;
    [numbits zero = 0]. *)
val numbits : t -> int

(** [int_numbits n] is [numbits (of_int n)] for a native [n >= 0]. *)
val int_numbits : int -> int

(** [testbit x k] is bit [k] of the magnitude [|x|]. *)
val testbit : t -> int -> bool

(** [trailing_zeros x] is the number of trailing zero bits of [|x|];
    raises [Invalid_argument] on zero. *)
val trailing_zeros : t -> int

(** {1 Infix operators} *)

module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( mod ) : t -> t -> t
  val ( ~- ) : t -> t
  val ( = ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
  val ( <> ) : t -> t -> bool
end
