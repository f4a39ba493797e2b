(* End-to-end generated correctly rounded elementary functions, and the
   exhaustive verification harness (the artifact's "correctness test"). *)

type t = Rlibm.Generate.generated

(* ---------- input sets ---------- *)

let inputs_exhaustive fmt =
  (* Fill a preallocated array (no intermediate list).  Slots are written
     back-to-front so the array keeps the order the list-based version
     produced (iteration order reversed) — generation artifacts such as
     the CalculatePhi merge depend on input order, so it is part of the
     observable output. *)
  let n = Softfp.count_finite fmt in
  let a = Array.make n 0L in
  let i = ref (n - 1) in
  Softfp.iter_finite fmt (fun b ->
      a.(!i) <- b;
      decr i);
  assert (!i = -1);
  a

(* Stratified samples for wide formats (binary32): every exponent value
   contributes, plus dense coverage near 0, 1 and the extremes. *)
let inputs_sampled fmt ~count ~seed =
  let st = Random.State.make [| seed |] in
  let w = Softfp.width fmt in
  let acc = ref [] in
  let add b = if Softfp.is_finite fmt b then acc := b :: !acc in
  (* boundary patterns *)
  add (Softfp.zero_bits fmt);
  add (Softfp.neg_zero_bits fmt);
  add (Softfp.min_subnormal_bits fmt ~neg:false);
  add (Softfp.min_subnormal_bits fmt ~neg:true);
  add (Softfp.max_finite_bits fmt ~neg:false);
  add (Softfp.max_finite_bits fmt ~neg:true);
  for _ = 1 to count - 6 do
    let bits = Random.State.int64 st (Int64.shift_left 1L w) in
    add bits
  done;
  Array.of_list !acc

(* ---------- generation ---------- *)

(* The pipeline's stage bodies over a sample, with a table of its own:
   a sample's oracle is partial, so it neither reads nor extends the
   shared whole-format table, and nothing reaches the store. *)
let generate_sampled ~(cfg : Rlibm.Config.t) ~scheme ~count ~seed func =
  let inputs = inputs_sampled cfg.tin ~count ~seed in
  let family = Rlibm.Generate.family ~cfg func in
  let oracle = Hashtbl.create (Array.length inputs) in
  Array.iter
    (fun (x, y) -> Hashtbl.replace oracle x y)
    (Rlibm.Constraints.oracle_range ~cfg ~family ~inputs ~lo:0
       ~hi:(Array.length inputs));
  let rivals =
    Rlibm.Constraints.rounding_intervals ~cfg ~family ~inputs ~oracle
  in
  let points, immediate_specials =
    Rlibm.Constraints.combine ~cfg ~family ~rivals
  in
  let built = { Rlibm.Constraints.points; immediate_specials } in
  ( Result.map
      (Rlibm.Generate.assemble ~cfg ~scheme ~func)
      (Rlibm.Generate.solve ~cfg ~scheme ~func ~built ~oracle ()),
    inputs,
    oracle )

(* ---------- evaluation ---------- *)

(* The reference implementation: special table, analytic shortcut, then
   the reference range reduction, the piece's DAG ({!Expr.eval_float})
   and the reference output compensation.  The batch kernel below is
   what runs; this is what it must equal. *)
let eval_bits (g : t) (x : int64) =
  let tin = g.cfg.tin in
  match Softfp.classify tin x with
  | Softfp.NaN -> Float.nan
  | Softfp.Inf ->
      if Softfp.sign_bit tin x then
        if Funcspec.is_exp_family g.family.func then 0.0 else Float.nan
      else Float.infinity
  | Softfp.Zero | Softfp.Subnormal | Softfp.Normal -> (
      match Array.find_index (Int.equal (Int64.to_int x)) g.spec_keys with
      | Some i -> g.spec_vals.(i)
      | None ->
          let xf = Softfp.to_float tin x in
          match g.family.shortcut xf with
          | Some v -> v
          | None ->
              let s = Rlibm.Reduction.scratch () in
              s.sf.sx <- xf;
              g.family.reduce_into s;
              let p = g.pieces.(s.spiece) in
              Rlibm.Reduction.compensate g.family s
                (Expr.eval_float p.Polyeval.expr ~data:p.Polyeval.data s.sf.sr))

(* ---------- batch kernel ---------- *)

type src_buf = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t
type dst_buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let create_src n : src_buf = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout n
let create_dst n : dst_buf = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

(* The batch kernel (genlibm_stubs.c): every pass over the chunk
   [\[lo, lo + len)] in one call, reading the function's pieces, decode
   table, family constants and special table in place from [t].  It
   neither allocates nor raises. *)
external kernel : src_buf -> int -> int -> dst_buf -> t -> unit
  = "rlibm_kernel"
[@@noalloc]

(* The double a finite pattern of the decoder's format denotes, equal to
   [Softfp.to_float]: the integer significand (hidden bit set unless the
   exponent field is 0) times a signed table weight, one exact multiply
   (the format fits in binary64).  The kernel's pass 1 decodes with the
   same C function. *)
external decode_bits : Rlibm.Reduction.decoder -> int64 -> float
  = "rlibm_decode"

(* [eval_bits_into g ~src ~dst ~lo ~hi] is [eval_bits] over the chunk
   [\[lo, hi)] of [src], bit for bit, with zero allocation.  OCaml keeps
   the bounds check: one C call per chunk runs every pass
   (genlibm_stubs.c), block by block over stack scratch, each pass one
   branch-free loop that gcc vectorizes, the family's passes chosen by
   [g.family.kernel]'s tag once per block:

   pass 1  for every element, decode through [g.decode] and run the
           family's shortcut tests and range reduction from the
           [Reduction.kernel] constants.  The shortcut outcome is a few
           comparison bits: they select the settled value from a small
           constant table (stored unconditionally; the compensation
           overwrites it for polynomial elements) and force the piece
           to -1.  A settled element's reduction is computed and
           discarded.  NaN/Inf inputs override the result by select
           (the settled table's NaN and -Inf results); then, only when
           [g.spec_keys] is not empty, a scalar loop probes it and
           settles its hits;
   pass 2  per piece, one sweep of {!Polyeval.eval_into}'s evaluator
           over the block, with the scheme and data of the piece's
           compiled record in [g.pieces] (the record [eval_bits]
           evaluates): piece 0's results are kept, each later
           piece's are selected where the element's piece is that
           piece.  A block pays every piece's sweep on every element,
           which at the one or two pieces of most functions is cheaper
           than grouping the elements by piece;
   pass 3  the output compensation [v *. 2^n] through the power-of-two
           tables, or [c +. v], written where the piece is not -1.

   Reduction and compensation give the same doubles as the reference
   ([Reduction.reduce_into], [Reduction.compensate]): the same
   operations on the same values, or exact equivalents for decode, the
   log family's k and m, the integer/double conversions and the scaling
   by 2^n.  The test suite enforces "bit-identical to [eval_bits]"
   exhaustively, and [verify] checks this kernel's results, so the
   verified code is the served code. *)
let eval_bits_into (g : t) ~(src : src_buf) ~(dst : dst_buf) ~lo ~hi =
  if
    lo < 0 || hi < lo
    || hi > Bigarray.Array1.dim src
    || hi > Bigarray.Array1.dim dst
  then invalid_arg "Genlibm.eval_bits_into: chunk outside the buffers";
  kernel src lo (hi - lo) dst g

(* The smallest chunk worth handing to another domain.  A fan-out costs
   a few microseconds (queueing, waking a worker, the pool mutex per
   chunk) against a few ns per element of kernel work, so small
   requests run on the caller.  Measured on a 2-core x86_64 VM,
   exp2/horner and log/estrin-fma on mini at -j 2 with the vectorized
   kernel, microseconds per call (mean of two runs, each the median of
   2001 calls):

     batch     16 chunks       on the caller     2 chunks
              exp2    log      exp2    log      exp2    log
       1024   16.7   20.1       5.5    6.6       8.5    9.1
       2048   21.7   25.9      11.1   13.2      22.5   26.2
       4096   25.8   26.8      22.5   23.5      29.2   27.2
       5120   29.7   31.9      26.7   29.5      28.4   35.0
       6144   34.9   36.2      31.9   37.1      31.1   36.0
       7168   40.2   39.6      44.0   42.3      43.0   45.3
       8192   41.2   40.2      43.3   58.0      45.8   39.4
      16384   65.5   70.8      86.6  119.1      68.9   73.6

   The crossover is at about 6144 elements.  With a grain of 3072,
   batches below 6144 run inline, 6144 splits in two, and at -j 2 a
   2^16 batch still gets the full 16 chunks (65536 / 3072 > 16). *)
let kernel_grain = 3072

(* ---------- rounding of results ---------- *)

let round_result = Softfp.round_float

(* ---------- verification ---------- *)

type verify_report = {
  total : int;
  checked : int;  (** finite inputs verified *)
  wrong34 : int;  (** wrong round-to-odd result in the widened target *)
  narrow_checks : int;
  wrong_narrow : int;
      (** wrong result for some narrower representation / rounding mode *)
}

let pp_verify_report fmt (r : verify_report) =
  Format.fprintf fmt
    "%d inputs: %d checked, %d wrong round-to-odd, %d/%d wrong narrowed"
    r.total r.checked r.wrong34 r.wrong_narrow r.narrow_checks

(* Per-input verdict computed by the parallel sweep of [verify]. *)
type verdict = {
  v_checked : bool;
  v_wrong34 : bool;
  v_narrow_checks : int;
  v_wrong_narrow : int;
}

let v_skip =
  {
    v_checked = false;
    v_wrong34 = false;
    v_narrow_checks = 0;
    v_wrong_narrow = 0;
  }

(* [verify g ~inputs] checks, for every finite input:

   1. the double produced by the implementation rounds (round-to-odd, into
      the widened format) to the oracle's round-to-odd result, and
   2. rounding the implementation's double *directly* into every supported
      representation (E+2 .. n total bits) under every standard rounding
      mode agrees with double-rounding the oracle result — i.e. the
      RLibm-All guarantee holds for the generated function.

   The doubles checked are the served ones: one [eval_bits_into] sweep
   over all inputs, chunked as [Serve] chunks a batch.  The
   per-input checks then fan out across the domain pool: [oracle] is
   only read (an input it lacks is computed and dropped), and the report
   is a sum of per-input counts, so the verdict is identical for every
   job count. *)
let verify ?(narrow = true) ~(oracle : (int64, int64) Hashtbl.t) (g : t)
    ~(inputs : int64 array) =
  let n = Array.length inputs in
  let src = create_src n and dst = create_dst n in
  Array.iteri (Bigarray.Array1.unsafe_set src) inputs;
  Parallel.iter_chunks ~grain:kernel_grain n (fun lo hi ->
      eval_bits_into g ~src ~dst ~lo ~hi);
  let tin = g.cfg.tin in
  let tout = Rlibm.Config.tout g.cfg in
  let narrow_fmts =
    Array.init
      (Softfp.width tin - (tin.Softfp.ebits + 2) + 1)
      (fun i ->
        Softfp.make_fmt ~ebits:tin.Softfp.ebits ~prec:(2 + i))
  in
  let modes = Array.of_list Softfp.all_standard_modes in
  let verdicts =
    Parallel.init n (fun i ->
        let x = inputs.(i) in
        if not (Softfp.is_finite tin x) then v_skip
        else begin
          let v = Bigarray.Array1.unsafe_get dst i in
          let xq = Softfp.to_rat tin x in
          if not (Oracle.domain_ok g.family.func xq) then begin
            (* Logarithm of zero / a negative number: the expected results
               are -inf and NaN respectively, in every representation. *)
            let expect_nan = Rat.sign xq < 0 in
            let ok =
              if expect_nan then Float.is_nan v else v = Float.neg_infinity
            in
            { v_skip with v_checked = true; v_wrong34 = not ok }
          end
          else begin
            let y_true =
              match Hashtbl.find_opt oracle x with
              | Some y -> y
              | None ->
                  (* Shortcut-path inputs: the oracle's own range shortcut
                     makes this cheap. *)
                  Oracle.correctly_round g.family.func xq ~fmt:tout
                    ~mode:Softfp.RTO
            in
            let y_impl = round_result tout Softfp.RTO v in
            if not (Int64.equal y_impl y_true) then
              { v_skip with v_checked = true; v_wrong34 = true }
            else begin
              let wn = ref 0 in
              if narrow then
                for i = 0 to Array.length narrow_fmts - 1 do
                  let f = narrow_fmts.(i) in
                  for k = 0 to Array.length modes - 1 do
                    let mode = modes.(k) in
                    if
                      not
                        (Int64.equal (round_result f mode v)
                           (Softfp.narrow ~src:tout ~dst:f mode y_true))
                    then incr wn
                  done
                done;
              {
                v_checked = true;
                v_wrong34 = false;
                v_narrow_checks =
                  (if narrow then Array.length narrow_fmts * Array.length modes
                   else 0);
                v_wrong_narrow = !wn;
              }
            end
          end
        end)
  in
  let checked = ref 0 in
  let wrong34 = ref 0 and wrong_narrow = ref 0 and narrow_checks = ref 0 in
  Array.iter
    (fun vd ->
      if vd.v_checked then incr checked;
      if vd.v_wrong34 then incr wrong34;
      narrow_checks := !narrow_checks + vd.v_narrow_checks;
      wrong_narrow := !wrong_narrow + vd.v_wrong_narrow)
    verdicts;
  {
    total = Array.length inputs;
    checked = !checked;
    wrong34 = !wrong34;
    narrow_checks = !narrow_checks;
    wrong_narrow = !wrong_narrow;
  }

(* ---------- reporting (Table 1 rows) ---------- *)

type table1_row = {
  func : Oracle.func;
  scheme : Polyeval.scheme;
  n_pieces : int;
  degrees : int list;
  n_specials : int;
}

let table1_row (g : t) =
  {
    func = g.family.func;
    scheme = g.scheme;
    n_pieces = Array.length g.pieces;
    degrees = Array.to_list g.degrees;
    n_specials = Rlibm.Generate.n_specials g;
  }

let pp_table1_row fmt (r : table1_row) =
  Format.fprintf fmt "%-6s %-11s pieces=%d degrees=%s specials=%d"
    (Oracle.name r.func)
    (Polyeval.scheme_name r.scheme)
    r.n_pieces
    (String.concat "," (List.map string_of_int r.degrees))
    r.n_specials
