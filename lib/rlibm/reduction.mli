(** Range reduction and output compensation in H = binary64 (§2).

    Two families cover the paper's six functions:

    - exponentials: [base^x = 2^(n + r)] with [n = floor(x * log2 base)]
      and [r] in [[0, 1)]; output compensation is the exact double scaling
      [v * 2^n];
    - logarithms: [x = 2^k * m], [m] in [[1, 2)], table lookup
      [F = 1 + j/2^J] from the top [J] bits of [m - 1], reduced input
      [r = (m - F)/F] in [[0, 2^-J)]; output compensation is the double
      addition [c + v] with [c = k * log_b 2 + T[j]] ([T[j]] the correctly
      rounded double of [log_b F], obtained from the oracle).

    Numerical error anywhere in this file is harmless by construction:
    constraints attach to the {e computed} reduced input, and reduced
    intervals are validated against the {e actual} double output
    compensation (see {!Constraints.reduced_interval}). *)

(** Everything a code generator needs to re-emit the reduction. *)
type params =
  | Exp_params of { log2_base : float }
      (** t = x * log2_base; n = floor t; r = t - n; result = p(r) * 2^n *)
  | Log_params of {
      table_bits : int;
      table : float array;  (** T[j] = round(log_b(1 + j/2^J)) *)
      k_scale : float;  (** log_b 2: the per-exponent constant *)
      k_exact : bool;  (** true for log2, where k * k_scale is exact *)
    }

(** Caller-owned scratch for {!t.reduce_into}.  The float slots live in a
    nested all-float record so they stay unboxed under mutation (a
    mutable float field of a mixed record would be boxed on every
    assignment); the input is passed through [sf.sx] instead of as a
    float argument so no call-boundary boxing occurs either.  Allocate
    one per chunk with {!scratch} and reuse it for every element. *)
type scratch_floats = {
  mutable sx : float;  (** in: the input *)
  mutable sr : float;  (** out: reduced input *)
  mutable sc : float;  (** out (log family): output-compensation addend *)
}

type scratch = {
  sf : scratch_floats;
  mutable spiece : int;  (** out: sub-domain index *)
  mutable sn : int;  (** out (exp family): output-compensation exponent *)
}

val scratch : unit -> scratch

(** Closure-free constants of the batch kernel, built once by {!make}:
    settled values in small tables indexed by comparison bits, so the
    kernel's classification takes no data-dependent branch. *)
type exp_consts = {
  ek_scale : float;  (** log2 of the base: t = x * ek_scale *)
  ek_hi_cut : float;  (** t above this overflows *)
  ek_lo_cut : float;  (** t below this underflows *)
  ek_near_cut : float;  (** 0 < |t| below this: the result hugs 1 *)
  ek_settled : float array;
      (** the shortcut's results, by index: 1 overflow, 2 underflow,
          3 just below 1 (x < 0), 4 just above 1 (x > 0); 0 is unused *)
  ek_n_lo : int;  (** smallest [n = floor t] of a polynomial-path input *)
  ek_pow : float array;
  ek_pow_lo : float array;
      (** [v *. ek_pow.(i) *. ek_pow_lo.(i)] is [ldexp v (ek_n_lo + i)],
          bit for bit: [ek_pow_lo.(i)] is 1.0 wherever [2^n] is a normal
          double, and otherwise an exact power-of-two shift lets the
          second multiply round once *)
}

type log_consts = {
  lk_table : float array;  (** T[j], 2^J entries *)
  lk_scale : float;  (** log_b 2 *)
  lk_exact : bool;  (** [k * lk_scale] is exact (log2) *)
  lk_settled : float array;
      (** the shortcut's results, indexed by [neg lor (zero lsl 1)]:
          NaN for negative inputs, -inf for zeros; 0 is unused *)
}

type kernel = Exp_kernel of exp_consts | Log_kernel of log_consts

(** Decode table of an input format for the batch kernel: [d_scale],
    indexed by the sign and exponent fields [b lsr d_fw], holds the
    signed weight [+/-2^(max(be, 1) - d_bias - d_fw)] of the integer
    significand; [0.0] (only for [ebits >= 12]) where it underflows. *)
type decoder = {
  d_fw : int;  (** fraction width, [prec - 1] *)
  d_bias : int;
  d_emask : int;  (** the all-ones exponent field *)
  d_scale : float array;
  d_mscale : float;
      (** [2^-d_fw]: scales an integer significand with its hidden bit
          to the [\[1, 2)] mantissa *)
}

val decoder : Softfp.fmt -> decoder

type t = {
  func : Oracle.func;
  pieces : int;
  params : params;
  kernel : kernel;  (** inlinable form of [shortcut] + compensation *)
  shortcut : float -> float option;
      (** analytic fast path: deep overflow/underflow for the
          exponentials, domain errors for the logarithms; [Some v]
          bypasses the polynomial entirely, and [v] rounds correctly in
          every representation and mode *)
  reduce_into : scratch -> unit;
      (** the reference range reduction, defined on finite doubles for
          which [shortcut] returns [None]: reads the input from [sf.sx]
          and writes the reduced input [sf.sr] and the sub-domain index
          [spiece] in [\[0, pieces)], plus [sn] (exp family) or [sf.sc]
          (log family) for {!compensate}.  Allocation-free. *)
}

(** [compensate t s v] is the actual double output compensation of the
    element {!t.reduce_into} left in [s], applied to the polynomial
    value [v]: [ldexp v sn] for the exponentials, [sc +. v] for the
    logarithms.  The batch kernel's table forms ([ek_pow], [lk_table])
    agree with it bit for bit. *)
val compensate : t -> scratch -> float -> float

(** [make func ~out_fmt ~pieces ~table_bits] builds the reduction family
    for [func], dispatching on the {!Funcspec} registry's family record;
    [out_fmt] fixes the overflow/underflow thresholds of the shortcut,
    [table_bits] the logarithm table size [J]. *)
val make :
  Oracle.func -> out_fmt:Softfp.fmt -> pieces:int -> table_bits:int -> t

(** [install_table func ~table_bits table] pre-seeds the in-process
    memo of the logarithm reduction table, so {!make} rebuilds the
    reduction without touching the table store or the oracle — the
    servable-snapshot layer ships tables inside its artifact and
    installs them before assembling.
    @raise Invalid_argument when [table] is not [2^table_bits] long. *)
val install_table : Oracle.func -> table_bits:int -> float array -> unit
