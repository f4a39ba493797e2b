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
  ignore (Rlibm.Constraints.ensure_oracle ~cfg ~family ~inputs ~oracle : int);
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

(* Binary search over the sorted native-int special table.  Returns the
   index of [key], or -1.  Keys are the (wrapped) [Int64.to_int] of the
   input patterns — the same injective mapping used when the array was
   sorted, so the probe is order-consistent for every format width.  The
   search is branch-free: its trip count depends only on the table size,
   and each step moves [base] by a comparison bit; only the final hit
   test, almost always a miss, branches on the key. *)
let[@inline] find_special (keys : int array) (key : int) =
  let n = Array.length keys in
  if n = 0 then -1
  else begin
    let base = ref 0 and len = ref n in
    while !len > 1 do
      let half = !len lsr 1 in
      base := !base + (half * Bool.to_int (Array.unsafe_get keys (!base + half) <= key));
      len := !len - half
    done;
    if Array.unsafe_get keys !base = key then !base else -1
  end

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
      let si = find_special g.spec_keys (Int64.to_int x) in
      if si >= 0 then g.spec_vals.(si)
      else
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

(* Reusable per-domain scratch for [eval_bits_into].  A chunk runs on one
   domain at a time, and the Parallel pool never runs two chunks
   concurrently on the same domain, so one scratch per domain suffices;
   holding it in DLS means steady-state batches allocate nothing at all
   (growth is amortized over the largest chunk ever seen). *)
type kscratch = {
  mutable kr : floatarray;  (* reduced input per element *)
  mutable kpr : floatarray;  (* polynomial arguments, packed per piece *)
  mutable kv : floatarray;  (* polynomial results, packed per piece *)
  mutable kc : floatarray;  (* log-family compensation addend *)
  mutable kn : int array;  (* exp-family power-of-two table index *)
  mutable kp : int array;  (* piece index; -1 = settled in the first pass *)
  mutable kidx : int array;  (* element positions grouped by slot *)
  mutable kcount : int array;  (* per-slot group size; slot p + 1 = piece p *)
  mutable koff : int array;  (* per-slot group start *)
  kred : Rlibm.Reduction.scratch;  (* reference reduction of log zeros/subnormals *)
}

let kscratch_key =
  Domain.DLS.new_key (fun () ->
      {
        kr = Float.Array.create 0;
        kpr = Float.Array.create 0;
        kv = Float.Array.create 0;
        kc = Float.Array.create 0;
        kn = [||];
        kp = [||];
        kidx = [||];
        kcount = [||];
        koff = [||];
        kred = Rlibm.Reduction.scratch ();
      })

let ensure_kscratch ks len slots =
  if Float.Array.length ks.kr < len then begin
    ks.kr <- Float.Array.create len;
    ks.kpr <- Float.Array.create len;
    ks.kv <- Float.Array.create len;
    ks.kc <- Float.Array.create len;
    ks.kn <- Array.make len 0;
    ks.kp <- Array.make len 0;
    ks.kidx <- Array.make len 0
  end;
  if Array.length ks.kcount < slots then begin
    ks.kcount <- Array.make slots 0;
    ks.koff <- Array.make slots 0
  end

(* The double a finite pattern [b] of the decoder's format denotes, equal
   to [Softfp.to_float]: the integer significand (hidden bit set unless
   the exponent field is 0) times a signed table weight, one correctly
   rounded (for ebits <= 11, exact) multiply.  Weights of 0.0 mark
   exponent fields below double range, which take the exact ldexp
   route; only formats with ebits >= 12 have them. *)
let[@inline] decode (d : Rlibm.Reduction.decoder) b =
  let se = (b lsr d.d_fw) land ((2 * d.d_emask) + 1) in
  let be = se land d.d_emask in
  let m = b land ((1 lsl d.d_fw) - 1) lor ((1 lsl d.d_fw) * Bool.to_int (be <> 0)) in
  let s = Array.unsafe_get d.d_scale se in
  if s <> 0.0 then float_of_int m *. s
  else
    let v = Float.ldexp (float_of_int m) (be + Bool.to_int (be = 0) - d.d_bias - d.d_fw) in
    if se > d.d_emask then -.v else v

let decode_bits d x = decode d (Int64.to_int x)

(* [eval_bits_into g ~src ~dst ~lo ~hi] is [eval_bits] over the chunk
   [\[lo, hi)] of [src], bit for bit, with zero per-element allocation;
   the common path makes no out-of-line call and takes no data-dependent
   branch:

   pass 1  for every element, decode through [g.decode] and run the
           family's shortcut tests and range reduction inline from the
           [Reduction.kernel] constants.  The shortcut outcome is a few
           comparison bits: they index the settled value in a small
           constant table (stored unconditionally; pass 3 overwrites it
           for polynomial elements) and force the piece to -1 through
           [piece lor (-settled)].  A settled element's reduction is
           computed and discarded.  A second loop then lets NaN/Inf and
           special-table inputs override the result: rare, hence
           predictable, branches;
   pass 2  counting-sort the positions by piece, with slot 0 for the
           settled elements, so neither loop branches;
   pass 3  per piece, gather the reduced inputs into a packed buffer,
           run the degree-specialized batch evaluator
           ({!Polyeval.eval_into}) once over the group, and scatter the
           compensated results: [v *. 2^n] through the power-of-two
           tables, or [c +. v].

   Reduction and compensation give the same doubles as the reference
   ([Reduction.reduce_into], [Reduction.compensate]): the same
   operations on the same values, or exact equivalents for decode, the
   log family's k and m, and the scaling by 2^n.  The test suite
   enforces "bit-identical to [eval_bits]" exhaustively, and [verify]
   checks this kernel's results, so the verified code is the served
   code. *)
let eval_bits_into (g : t) ~(src : src_buf) ~(dst : dst_buf) ~lo ~hi =
  if
    lo < 0 || hi < lo
    || hi > Bigarray.Array1.dim src
    || hi > Bigarray.Array1.dim dst
  then invalid_arg "Genlibm.eval_bits_into: chunk outside the buffers";
  let len = hi - lo in
  if len > 0 then begin
    let npieces = Array.length g.pieces in
    let ks = Domain.DLS.get kscratch_key in
    ensure_kscratch ks len (npieces + 1);
    let kr = ks.kr and kc = ks.kc and kn = ks.kn and kp = ks.kp in
    let d = g.decode in
    let fw = d.Rlibm.Reduction.d_fw and emask = d.Rlibm.Reduction.d_emask in
    let fmask = (1 lsl fw) - 1 and sign_shift = Softfp.width g.cfg.tin - 1 in
    let pieces = g.family.Rlibm.Reduction.pieces in
    let fpieces = float_of_int pieces in
    (match g.family.Rlibm.Reduction.kernel with
    | Rlibm.Reduction.Exp_kernel ek ->
        let scale = ek.Rlibm.Reduction.ek_scale in
        let hi_cut = ek.Rlibm.Reduction.ek_hi_cut in
        let low_cut = ek.Rlibm.Reduction.ek_lo_cut in
        let near_cut = ek.Rlibm.Reduction.ek_near_cut in
        let settled_v = ek.Rlibm.Reduction.ek_settled in
        let n_lo = ek.Rlibm.Reduction.ek_n_lo in
        for o = 0 to len - 1 do
          let x = decode d (Int64.to_int (Bigarray.Array1.unsafe_get src (lo + o))) in
          let t = x *. scale in
          let c_hi = Bool.to_int (t > hi_cut) and c_lo = Bool.to_int (t < low_cut) in
          let c_near = Bool.to_int (x <> 0.0) land Bool.to_int (Float.abs t < near_cut) in
          Bigarray.Array1.unsafe_set dst (lo + o)
            (Array.unsafe_get settled_v
               (c_hi + (2 * c_lo) + (c_near * (3 + Bool.to_int (x > 0.0)))));
          (* Reduction.reduce_into, exponential family *)
          let ti = int_of_float t in
          let n = ti - Bool.to_int (t < float_of_int ti) in
          let r = Float.abs (t -. float_of_int n) in
          let p = int_of_float (r *. fpieces) in
          Array.unsafe_set kp o
            ((p - Bool.to_int (p >= pieces)) lor -(c_hi lor c_lo lor c_near));
          Float.Array.unsafe_set kr o r;
          Array.unsafe_set kn o (n - n_lo)
        done
    | Rlibm.Reduction.Log_kernel lk ->
        let tbl = lk.Rlibm.Reduction.lk_table in
        let tsize = float_of_int (Array.length tbl) in
        let inv_tsize = 1.0 /. tsize in
        let k_scale = lk.Rlibm.Reduction.lk_scale in
        let k_exact = lk.Rlibm.Reduction.lk_exact in
        let settled_v = lk.Rlibm.Reduction.lk_settled in
        (* Exponent fields whose k = be - bias is a normal double's take k
           and m straight from the fields; for ebits <= 11 that is every
           nonzero field.  Zeros and subnormals take the reference
           reduction. *)
        let bias = d.Rlibm.Reduction.d_bias in
        let be_lo = if bias - 1022 > 1 then bias - 1022 else 1 in
        let mscale = d.Rlibm.Reduction.d_mscale in
        let s = ks.kred in
        let reduce_into = g.family.Rlibm.Reduction.reduce_into in
        for o = 0 to len - 1 do
          let b = Int64.to_int (Bigarray.Array1.unsafe_get src (lo + o)) in
          let be = (b lsr fw) land emask and neg = (b lsr sign_shift) land 1 in
          let zero = Bool.to_int (b land ((1 lsl sign_shift) - 1) = 0) in
          let settled = neg lor zero in
          Bigarray.Array1.unsafe_set dst (lo + o)
            (Array.unsafe_get settled_v (neg lor (zero lsl 1)));
          if be >= be_lo && be <= bias + 1023 then begin
            (* Reduction.reduce_into, logarithm family: x = 2^k * m *)
            let m = float_of_int (b land fmask lor (fmask + 1)) *. mscale in
            let j = int_of_float ((m -. 1.0) *. tsize) in
            let f = 1.0 +. (float_of_int j *. inv_tsize) in
            let r = (m -. f) /. f in
            let kf = float_of_int (be - bias) in
            Float.Array.unsafe_set kr o r;
            Float.Array.unsafe_set kc o
              (if k_exact then kf +. tbl.(j) else Float.fma kf k_scale tbl.(j));
            let p = int_of_float (r *. tsize *. fpieces) in
            Array.unsafe_set kp o ((p - Bool.to_int (p >= pieces)) lor -settled)
          end
          else begin
            s.Rlibm.Reduction.sf.Rlibm.Reduction.sx <- decode d b;
            reduce_into s;
            Array.unsafe_set kp o (s.Rlibm.Reduction.spiece lor -settled);
            Float.Array.unsafe_set kr o s.Rlibm.Reduction.sf.Rlibm.Reduction.sr;
            Float.Array.unsafe_set kc o s.Rlibm.Reduction.sf.Rlibm.Reduction.sc
          end
        done);
    let neg_inf_v = if Funcspec.is_exp_family g.family.func then 0.0 else Float.nan in
    let spec_keys = g.spec_keys and spec_vals = g.spec_vals in
    for o = 0 to len - 1 do
      let b = Int64.to_int (Bigarray.Array1.unsafe_get src (lo + o)) in
      let si = find_special spec_keys b in
      if (b lsr fw) land emask = emask then begin
        Array.unsafe_set kp o (-1);
        Bigarray.Array1.unsafe_set dst (lo + o)
          (if b land fmask <> 0 then Float.nan
           else if (b lsr sign_shift) land 1 = 1 then neg_inf_v
           else Float.infinity)
      end
      else if si >= 0 then begin
        Array.unsafe_set kp o (-1);
        Bigarray.Array1.unsafe_set dst (lo + o) (Array.unsafe_get spec_vals si)
      end
    done;
    (* Pass 2: counting sort of the positions by slot kp + 1. *)
    let slots = npieces + 1 in
    let kcount = ks.kcount and koff = ks.koff and kidx = ks.kidx in
    Array.fill kcount 0 slots 0;
    for o = 0 to len - 1 do
      let q = Array.unsafe_get kp o + 1 in
      Array.unsafe_set kcount q (Array.unsafe_get kcount q + 1)
    done;
    let acc = ref 0 in
    for q = 0 to slots - 1 do
      koff.(q) <- !acc;
      acc := !acc + kcount.(q)
    done;
    for o = 0 to len - 1 do
      let q = Array.unsafe_get kp o + 1 in
      let at = Array.unsafe_get koff q in
      Array.unsafe_set kidx at o;
      Array.unsafe_set koff q (at + 1)
    done;
    (* Pass 3: per piece — gather, batch-evaluate, compensate, scatter.
       [koff.(p + 1)] now points one past piece p's group. *)
    let kpr = ks.kpr and kv = ks.kv in
    for p = 0 to npieces - 1 do
      let m = kcount.(p + 1) in
      if m > 0 then begin
        let base = koff.(p + 1) - m in
        for t = 0 to m - 1 do
          Float.Array.unsafe_set kpr t
            (Float.Array.unsafe_get kr (Array.unsafe_get kidx (base + t)))
        done;
        Polyeval.eval_into g.scheme g.pieces.(p).Polyeval.data ~src:kpr ~dst:kv
          ~lo:0 ~hi:m;
        match g.family.Rlibm.Reduction.kernel with
        | Rlibm.Reduction.Exp_kernel ek ->
            let pow = ek.Rlibm.Reduction.ek_pow and pow_lo = ek.Rlibm.Reduction.ek_pow_lo in
            for t = 0 to m - 1 do
              let o = Array.unsafe_get kidx (base + t) in
              let i = Array.unsafe_get kn o in
              Bigarray.Array1.unsafe_set dst (lo + o)
                (Float.Array.unsafe_get kv t *. Array.unsafe_get pow i
                *. Array.unsafe_get pow_lo i)
            done
        | Rlibm.Reduction.Log_kernel _ ->
            for t = 0 to m - 1 do
              let o = Array.unsafe_get kidx (base + t) in
              Bigarray.Array1.unsafe_set dst (lo + o)
                (Float.Array.unsafe_get kc o +. Float.Array.unsafe_get kv t)
            done
      end
    done
  end

(* The smallest chunk worth handing to another domain.  A fan-out costs
   a few microseconds (queueing, waking a worker, the pool mutex per
   chunk) against ~20 ns per element of kernel work, so small requests
   run on the caller.  Measured on a 2-core x86_64 VM, exp2/horner at
   -j 2, microseconds per call:

     batch   16 chunks   on the caller   2 chunks
        64         5.5             1.3        4.9
       256        16.3             5.4        8.6
       512        18.5            10.6       22.4
      1024        31.9            32.4       21.3
      4096        60.2            84.4       55.2

   With a grain of 512, batches below 1024 run inline, 1024 splits in
   two, and at -j 2 batches from 2^13 on get the full 16 chunks. *)
let kernel_grain = 512

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
