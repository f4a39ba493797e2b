(** End-to-end generated correctly rounded elementary functions, plus the
    exhaustive verification harness (the reproduction of the artifact's
    correctness test).

    A generated function evaluates in three stages, exactly like the
    artifact's C implementations: per-input special table (the paper's
    special-case inputs), analytic range shortcut (deep
    overflow/underflow, domain errors), then range reduction → compiled
    polynomial → output compensation, all in double precision.  The
    resulting double rounds correctly into every representation with
    [ebits+2 .. width tin] total bits under all five standard rounding
    modes. *)

type t = Rlibm.Generate.generated

(** {1 Input sets} *)

(** All finite patterns of a format (use for exhaustive runs). *)
val inputs_exhaustive : Softfp.fmt -> int64 array

(** Random patterns plus the boundary values (zeros, min subnormals, max
    finite); for wide formats where exhaustive runs are infeasible. *)
val inputs_sampled : Softfp.fmt -> count:int -> seed:int -> int64 array

(** {1 Generation} *)

(** Exhaustive generation over every finite input of [cfg.tin] is the
    staged pipeline's ([Pipeline.generate] / [Pipeline.verified]).

    [generate_sampled ~cfg ~scheme ~count ~seed func] generates from
    {!inputs_sampled} for formats too wide for exhaustive runs (binary32):
    the pipeline's stage bodies ({!Rlibm.Constraints.oracle_range},
    [rounding_intervals], [combine], {!Rlibm.Generate.solve},
    [assemble]) over an oracle table this call creates.  Returns the
    function, the sampled inputs and that table (input bits ->
    round-to-odd bits, for every finite non-shortcut sampled input), for
    {!verify}.  It never reads or writes the shared oracle table or the
    persistent store, so every call pays its own oracle. *)
val generate_sampled :
  cfg:Rlibm.Config.t ->
  scheme:Polyeval.scheme ->
  count:int ->
  seed:int ->
  Oracle.func ->
  (t, Diag.Error.t) result * int64 array * (int64, int64) Hashtbl.t

(** {1 Evaluation} *)

(** The reference implementation on one input bit pattern of [cfg.tin]:
    NaN/infinity semantics, {!Softfp.to_float} decode, the special
    table, the analytic shortcut, {!Rlibm.Reduction.t.reduce_into}, the
    piece's {!Expr} DAG ({!Expr.eval_float}) and
    {!Rlibm.Reduction.compensate}.  It shares no evaluation code with
    the batch kernel {!eval_bits_into}, which must equal it bit for bit
    (enforced by the test suite); it is the test and cross-check
    reference, not a serving path. *)
val eval_bits : t -> int64 -> float

(** [round_result fmt mode v] rounds a double function result into a
    format, with NaN/infinity/signed-zero handling: {!Softfp.round_float}
    under the name the verification callers use. *)
val round_result : Softfp.fmt -> Softfp.mode -> float -> Softfp.bits

(** {1 Batch kernel}

    The serving hot path.  Inputs and outputs live in C-layout
    {!Bigarray} buffers — flat, unboxed, shareable across domains
    without copying — and a chunk is one [[@@noalloc]] C call per
    family (genlibm_stubs.c) reading the {!Rlibm.Reduction.kernel} and
    decoder records' own fields and each piece's scheme and data in
    place from {!Rlibm.Generate.generated.pieces}, the records
    {!eval_bits} evaluates, so a function rebuilt with other pieces
    serves exactly those.  It runs every pass over
    blocks of the chunk whose scratch is on the C stack: decode,
    shortcut classification, range reduction and NaN/Inf in one
    branch-free loop, then the special table's scalar probe when it is
    not empty; one sweep of {!Polyeval.eval_into}'s evaluator per piece
    over the block, each later piece's results selected where the
    element belongs to it; the output compensation where the element
    is not settled.  Every loop runs in SIMD lanes on x86_64 CPUs with
    AVX2 (an x86-64-v3 clone of each loop's worker, picked once by the
    loader) and gives the same bits everywhere.  OCaml keeps the bounds
    check and the dispatch; no closure runs per element.
    The input format satisfies {!Softfp.fits_double}
    ({!Rlibm.Generate.family} rejects any other), so every finite input
    decodes exactly to a double. *)

(** Input bit patterns (one per element, in the low bits of each
    [int64]). *)
type src_buf = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** Double results, same indexing as the source buffer. *)
type dst_buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val create_src : int -> src_buf
val create_dst : int -> dst_buf

(** [eval_bits_into g ~src ~dst ~lo ~hi] evaluates patterns
    [src.{lo} .. src.{hi-1}] into the same slots of [dst].  Bit-identical
    to {!eval_bits} on every input, with no heap allocation at all
    (the kernel's scratch is on the C stack).  Other
    slots of [dst] are untouched, so disjoint chunks can be filled
    concurrently from different domains.
    @raise Invalid_argument when [\[lo, hi)] falls outside either
    buffer. *)
val eval_bits_into : t -> src:src_buf -> dst:dst_buf -> lo:int -> hi:int -> unit

(** The {!Parallel} grain of kernel sweeps: the smallest chunk worth
    handing to another domain.  [Serve] and {!verify} chunk with it. *)
val kernel_grain : int

(** [decode_bits d x] is the batch kernel's decode (the same C
    function) of the finite pattern [x] through the table [d]; it equals
    [Softfp.to_float].  A test hook. *)
val decode_bits : Rlibm.Reduction.decoder -> int64 -> float

(** {1 Verification} *)

type verify_report = {
  total : int;
  checked : int;  (** finite inputs verified *)
  wrong34 : int;  (** wrong round-to-odd results in the widened target *)
  narrow_checks : int;
  wrong_narrow : int;
      (** wrong results for some narrower representation / rounding mode *)
}

val pp_verify_report : Format.formatter -> verify_report -> unit

(** [verify ~oracle g ~inputs] evaluates every input through the served
    batch kernel {!eval_bits_into} — so the verified code is the code
    that ships — and checks, for every finite input: the double output
    rounds (round-to-odd) to the oracle's result in the widened target,
    and — unless [narrow] is [false] — rounding it directly into every
    supported representation under every standard mode matches
    double-rounding the oracle result (the RLibm-All guarantee).
    Logarithm domain errors are checked for NaN/-infinity semantics.

    [oracle] (input bits -> round-to-odd bits) is only read.  An input
    it lacks — the analytic shortcut inputs, which no oracle table
    holds — is computed with {!Oracle.correctly_round} and dropped, so
    a second verification pays for those inputs again. *)
val verify :
  ?narrow:bool ->
  oracle:(int64, int64) Hashtbl.t ->
  t ->
  inputs:int64 array ->
  verify_report

(** {1 Reporting} *)

(** One row of the paper's Table 1. *)
type table1_row = {
  func : Oracle.func;
  scheme : Polyeval.scheme;
  n_pieces : int;
  degrees : int list;
  n_specials : int;
}

val table1_row : t -> table1_row
val pp_table1_row : Format.formatter -> table1_row -> unit
