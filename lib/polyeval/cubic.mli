(** Real-root extraction for cubics in double precision — the "external
    cubic solver" Knuth's degree-5/6 coefficient adaptation needs (§3.2,
    §3.3 of the paper).  A cubic with real coefficients always has a real
    root; we find one with a sign-safe bisection inside the Cauchy root
    bound followed by Newton polishing. *)

(** [real_root ~c3 ~c2 ~c1 ~c0] is a real root of
    [c3 x^3 + c2 x^2 + c1 x + c0].
    @raise Invalid_argument when [c3 = 0] or any coefficient is not
    finite. *)
val real_root : c3:float -> c2:float -> c1:float -> c0:float -> float

(** [eval ~c3 ~c2 ~c1 ~c0 x]: Horner evaluation of the cubic, exposed for
    tests.  A test hook. *)
val eval : c3:float -> c2:float -> c1:float -> c0:float -> float -> float
