(** Software implementation of parameterized IEEE-754-style binary floating
    point formats.

    The RLibm-All construction needs to (a) decode/encode values of *every*
    representation from 10 bits up to 34 bits, (b) round exact rational
    values under all five standard rounding modes plus the non-standard
    {e round-to-odd} mode, and (c) enumerate small formats exhaustively.
    This module provides all of that: rationals round through exact {!Rat}
    arithmetic, doubles and format patterns through a native-integer path
    that agrees with it bit for bit.

    A format is a sign bit, [ebits] exponent bits and [prec - 1] fraction
    bits (so [prec] counts the hidden bit, as usual: binary32 is
    [ebits = 8, prec = 24]).  Values are immutable bit patterns stored in
    the low [width] bits of an [int64]. *)

type fmt = private { ebits : int; prec : int }

(** [make_fmt ~ebits ~prec] builds a format descriptor.
    @raise Invalid_argument unless [1 <= ebits <= 15], [2 <= prec] and the
    total width [1 + ebits + prec - 1] is at most 63. *)
val make_fmt : ebits:int -> prec:int -> fmt

val binary16 : fmt
val bfloat16 : fmt
val binary32 : fmt

(** The paper's 34-bit representation: binary32 plus two extra fraction
    bits ([ebits = 8], [prec = 26]). *)
val fp34 : fmt

(** [with_extra_prec fmt k] widens the fraction by [k] bits (the
    "(n+2)-bit representation" construction). *)
val with_extra_prec : fmt -> int -> fmt

(** Total bit width [1 + ebits + (prec - 1)]. *)
val width : fmt -> int

(** Largest normal exponent [2^(ebits-1) - 1]. *)
val emax : fmt -> int

(** Smallest normal exponent [1 - emax]. *)
val emin : fmt -> int

(** {1 Rounding modes} *)

type mode =
  | RNE  (** round to nearest, ties to even *)
  | RNA  (** round to nearest, ties away from zero *)
  | RTZ  (** round toward zero *)
  | RTU  (** round toward positive infinity *)
  | RTD  (** round toward negative infinity *)
  | RTO  (** round to odd: exact values stay, otherwise pick the adjacent
             value whose bit pattern is odd *)

val all_standard_modes : mode list
val mode_to_string : mode -> string

(** {1 Bit patterns} *)

type bits = int64

val zero_bits : fmt -> bits
val neg_zero_bits : fmt -> bits
val inf_bits : fmt -> neg:bool -> bits
val nan_bits : fmt -> bits
val max_finite_bits : fmt -> neg:bool -> bits
val min_subnormal_bits : fmt -> neg:bool -> bits

type cls = Zero | Subnormal | Normal | Inf | NaN

val classify : fmt -> bits -> cls
val is_finite : fmt -> bits -> bool
val is_nan : fmt -> bits -> bool
val sign_bit : fmt -> bits -> bool

(** [frac_odd fmt b] is true when the integer interpretation of the pattern
    is odd — the parity round-to-odd cares about. *)
val frac_odd : fmt -> bits -> bool

(** {1 Value conversions} *)

(** [to_rat fmt b] decodes a finite pattern to its exact rational value.
    @raise Invalid_argument on infinities and NaN. *)
val to_rat : fmt -> bits -> Rat.t

(** [of_rat fmt mode q] rounds the exact rational [q] into the format under
    the given mode, with IEEE gradual underflow and overflow semantics.
    Overflow under RTO goes to the largest finite value (whose pattern is
    odd), matching the double-rounding construction's needs. *)
val of_rat : fmt -> mode -> Rat.t -> bits

(** [of_dyadic fmt mode ~neg m e] rounds [(-1)^neg * m * 2^e] exactly as
    {!of_rat} rounds that rational, but in native integers (no {!Rat} or
    {!Bigint} arithmetic).  [m = 0] gives the zero of sign [neg].
    @raise Invalid_argument when [m < 0]. *)
val of_dyadic : fmt -> mode -> neg:bool -> int -> int -> bits

(** [round_float fmt mode x] rounds a double (through {!of_dyadic}), keeping
    the sign of zero.  NaN maps to NaN and infinities to same-signed
    infinities. *)
val round_float : fmt -> mode -> float -> bits

(** [to_float fmt b] is the double nearest to the decoded value.  For
    [prec <= 53] and [ebits <= 11] (mini, binary16, bfloat16, binary32)
    every finite value is a double and is decoded exactly in native
    arithmetic; wider formats round through {!Rat}. *)
val to_float : fmt -> bits -> float

(** {1 Navigation and enumeration} *)

(** Total order on patterns matching the order of the represented values,
    with [-0 < +0] (used only to make the order total). *)
val ordinal : fmt -> bits -> int

val of_ordinal : fmt -> int -> bits

(** [succ fmt b] is the next pattern toward +infinity.
    @raise Invalid_argument when [b] is +infinity or NaN. *)
val succ : fmt -> bits -> bits

(** [pred fmt b] is the next pattern toward -infinity. *)
val pred : fmt -> bits -> bits

(** [iter_finite fmt f] applies [f] to every finite pattern of the format
    (including both zeros), in no particular order.  Intended for
    exhaustive verification of small formats. *)
val iter_finite : fmt -> (bits -> unit) -> unit

(** Number of finite patterns of the format. *)
val count_finite : fmt -> int

(** {1 Double rounding} *)

(** [narrow ~src ~dst mode b] re-rounds a value of format [src] into the
    (typically narrower) format [dst] — the "double rounding" step of
    RLibm-All — through {!of_dyadic}.  Zeros keep their sign; infinities
    and NaN map to their [dst] counterparts. *)
val narrow : src:fmt -> dst:fmt -> mode -> bits -> bits

(** {1 binary32/64 bridges} *)

val bits_of_float32 : float -> bits
