(** Rounding intervals for round-to-odd targets (§2 of the paper).

    Given the oracle's round-to-odd result [y] in the widened
    representation T', the rounding interval is the set of values of
    H = binary64 that round to [y] under round-to-odd:

    - an odd-patterned [y] is never the image of an exactly representable
      real, so its interval is the open interval between its two (even)
      neighbours;
    - an even-patterned [y] only arises from the exactly representable
      real equal to [y], so its interval degenerates to that point.

    Intervals are materialized as their extreme {e double} members, which
    is what the LP layer consumes. *)

type t = { lo : float; hi : float }

(** Set membership, as doubles.  A test hook. *)
val contains : t -> float -> bool

(** True for the single-point intervals of exactly representable
    results — the origin of the paper's "special case inputs".
    A test hook. *)
val is_degenerate : t -> bool

(** [of_round_to_odd tout y] is the rounding interval of the finite
    pattern [y] of format [tout].
    @raise Invalid_argument when [y] is infinite or NaN. *)
val of_round_to_odd : Softfp.fmt -> Softfp.bits -> t
