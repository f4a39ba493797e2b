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
    compensation (see {!Constraints.reduced_interval}).

    A family's constants (log2 of the base and the overflow, underflow
    and near-1 cut-offs of the exponentials; the table, log_b 2 and its
    exactness for the logarithms) live in one record, {!t.kernel}.  The
    reference closures {!t.shortcut} and {!t.reduce_into}, the batch
    kernel, the emitted C and OCaml source and the constraint builder
    all read them there. *)

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

(** The family's constants, built once by {!make}: settled values in
    small tables indexed by comparison bits, so the batch kernel's
    classification takes no data-dependent branch.

    Layout read by C.  The batch kernel (genlibm_stubs.c) reads every
    field of [exp_consts] and [log_consts] by position, a {!kernel}'s
    constructor index as its family ([Exp_kernel] 0, [Log_kernel] 1)
    and {!t.kernel} as field 2 of {!t}; its sanitized build checks
    each record's field count.  Reordering or adding fields or
    constructors changes what C reads. *)
type exp_consts = {
  ek_scale : float;  (** log2 of the base: t = x * ek_scale *)
  ek_hi_cut : float;  (** t above this overflows *)
  ek_lo_cut : float;  (** t below this underflows *)
  ek_near_cut : float;  (** 0 < |t| below this: the result hugs 1 *)
  ek_settled : float array;
      (** the settled results, by index: 0 the -inf input's (0.0),
          1 overflow, 2 underflow, 3 just below 1 (x < 0), 4 just above
          1 (x > 0), 5 NaN inputs' *)
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
      (** the settled results, indexed by [neg lor (zero lsl 1)]:
          NaN for negative inputs (also the NaN and -inf inputs'),
          -inf for zeros; 0 is unused *)
}

type kernel = Exp_kernel of exp_consts | Log_kernel of log_consts

(** Decode table of an input format for the batch kernel: [d_scale],
    indexed by the sign and exponent fields [b lsr d_fw], holds the
    signed weight [+/-2^(max(be, 1) - d_bias - d_fw)] of the integer
    significand.  The format satisfies {!Softfp.fits_double}, so every
    weight is a finite, nonzero double and the product of a significand
    and its weight is the exact value.  Layout read by C: the batch
    kernel reads all four fields by position. *)
type decoder = {
  d_fw : int;  (** fraction width, [prec - 1] *)
  d_bias : int;
  d_emask : int;  (** the all-ones exponent field *)
  d_scale : float array;
}

(** @raise Invalid_argument when the format fails
    {!Softfp.fits_double}. *)
val decoder : Softfp.fmt -> decoder

type t = {
  func : Oracle.func;
  pieces : int;
  kernel : kernel;
      (** the family's constants; every field below reads them here *)
  shortcut : float -> float option;
      (** analytic fast path: deep overflow/underflow and the near-1
          band for the exponentials, domain errors for the logarithms;
          [Some v] (one of the kernel's settled values) bypasses the
          polynomial entirely, and [v] rounds correctly in every
          representation and mode *)
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

(** [log_table func ~table_bits] is [T[j]], the correctly rounded
    double of [log_b (1 + j/2^table_bits)] for [j < 2^table_bits], from
    the oracle.  Memoized in-process and persisted through {!Cache}
    under kind ["table"]; this is the memo's only writer. *)
val log_table : Oracle.func -> table_bits:int -> float array

(** [make ?table func ~out_fmt ~pieces ~table_bits] builds the
    reduction family for [func], dispatching on the {!Funcspec}
    registry's family record; [out_fmt] fixes the exponentials' cut-offs
    and settled values.  [table] supplies the logarithms' [T[j]] (a
    stored copy); without it they read {!log_table}.  The exponentials
    use no table.
    @raise Invalid_argument when the logarithms' table is not
    [2^table_bits] long. *)
val make :
  ?table:float array ->
  Oracle.func ->
  out_fmt:Softfp.fmt ->
  pieces:int ->
  table_bits:int ->
  t
