(* Range reduction and output compensation (performed in H = binary64),
   one family for the exponentials and one for the logarithms.

   The exponential family reduces through t = x * log2(base):

     base^x = 2^t = 2^n * 2^r,   n = floor(t),  r = t - n in [0, 1)

   and output-compensates by the exact double scaling v * 2^n.  The
   polynomial approximates 2^r on [0, 1).

   The logarithm family decomposes the input as x = 2^k * m with
   m in [1, 2), looks up F = 1 + j/2^J from the top J bits of m - 1, and
   reduces to r = (m - F)/F in [0, 2^-J):

     log_b(x) = k * log_b(2) + log_b(F) + log_b(1 + r)

   The polynomial approximates log_b(1 + r); output compensation is the
   double addition c + v with the per-input constant
   c = k * log_b 2 + T[j] (T[j] is the correctly rounded double of
   log_b(F), produced by the oracle).

   Numerical errors in either direction are harmless by construction: the
   constraints are attached to the *computed* reduced input, and the
   reduced intervals are validated against the *actual* double output
   compensation (Constraints.reduced_interval), mirroring CalculateL' of
   the RLibm papers. *)

(* Caller-owned scratch for the allocation-free reduction.  The float
   slots live in their own all-float record: OCaml stores such records
   flat (unboxed fields), whereas a mutable float field in a mixed
   int/float record would be boxed on every assignment — exactly the
   per-element allocation the batch kernels exist to avoid.  The input
   is passed through [sx] rather than as a float argument for the same
   reason: without flambda, a float argument to a closure is boxed at
   the call boundary. *)
type scratch_floats = { mutable sx : float; mutable sr : float; mutable sc : float }
type scratch = { sf : scratch_floats; mutable spiece : int; mutable sn : int }

let scratch () =
  { sf = { sx = 0.0; sr = 0.0; sc = 0.0 }; spiece = 0; sn = 0 }

(* Closure-free constants of the batch kernel, built once per [make];
   documented in the interface. *)
type exp_consts = {
  ek_scale : float;
  ek_hi_cut : float;
  ek_lo_cut : float;
  ek_near_cut : float;
  ek_settled : float array;
  ek_n_lo : int;
  ek_pow : float array;
  ek_pow_lo : float array;
}

type log_consts = {
  lk_table : float array;
  lk_scale : float;
  lk_exact : bool;
  lk_settled : float array;
}

type kernel = Exp_kernel of exp_consts | Log_kernel of log_consts

(* Layout in the interface. *)
type decoder = {
  d_fw : int;
  d_bias : int;
  d_emask : int;
  d_scale : float array;
}

(* 2^e without an out-of-line Float.ldexp in the normal range; with the
   table loops (unboxed stores) this keeps set-up time flat. *)
let[@inline] pow2 e =
  if e < -1022 || e > 1023 then Float.ldexp 1.0 e
  else Int64.float_of_bits (Int64.shift_left (Int64.of_int (e + 1023)) 52)

let decoder (fmt : Softfp.fmt) =
  if not (Softfp.fits_double fmt) then
    invalid_arg "Reduction.decoder: input values are not all doubles";
  let fw = fmt.Softfp.prec - 1 and bias = Softfp.emax fmt in
  let emask = (1 lsl fmt.Softfp.ebits) - 1 in
  let d_scale = Array.make (2 * (emask + 1)) 0.0 in
  for se = 0 to (2 * emask) + 1 do
    let be = se land emask in
    let w = pow2 ((if be = 0 then 1 else be) - bias - fw) in
    d_scale.(se) <- (if se > emask then -.w else w)
  done;
  { d_fw = fw; d_bias = bias; d_emask = emask; d_scale }

type t = {
  func : Oracle.func;
  pieces : int;
  kernel : kernel;
  shortcut : float -> float option;
      (* analytic fast path (deep overflow/underflow, domain errors);
         [Some v] bypasses the polynomial entirely *)
  reduce_into : scratch -> unit;
      (* allocation-free variant: reads [sf.sx], writes [sf.sr],
         [spiece], and [sn] (exp) / [sf.sc] (log) *)
}
(* [shortcut] and [reduce_into] are built from [kernel] and read only
   its fields: the record is the one copy of the family's constants. *)

(* ---------- exponential family ---------- *)

(* [scale] is the family's log2_base from the registry: RN(log2 e),
   1.0 or RN(log2 10) for the paper's three exponentials. *)
let exp_consts ~scale ~out_fmt =
  let emax = float_of_int (Softfp.emax out_fmt) in
  let emin = Softfp.emin out_fmt and prec = out_fmt.Softfp.prec in
  let hi_cut = emax +. 1.1 and lo_cut = float_of_int (emin - prec) -. 1.1 in
  (* Near 1: for 0 < |t| < 2^-(prec+3) the result lies strictly between 1
     and its neighbour in the target, so round-to-odd is that (odd)
     neighbour and any double strictly inside the gap is a correct return
     value.  The polynomial path cannot produce one once |t| drops below
     double precision (1 + c1*t rounds back to 1.0), so this is an
     analytic branch, exactly like the artifact's small-input paths.
     The settled values just below / above 1 are strictly inside
     (pred 1, 1) / (1, succ 1) of the target and strictly on the correct
     side of every narrower format's rounding midpoint (the nearest
     midpoints are 1 +/- 2^-(prec+1) for the full-width format itself). *)
  let settled =
    [|
      0.0;
      Float.ldexp 1.0 (Softfp.emax out_fmt + 1);
      Float.ldexp 1.0 (emin - prec - 2);
      1.0 -. Float.ldexp 1.0 (-(prec + 2));
      1.0 +. Float.ldexp 1.0 (-(prec + 1));
      Float.nan;
    |]
  in
  (* 2^n as a two-factor product, one factor per table: exactly 2^n
     when that is a normal double; otherwise an exact shift by 2^(n -/+
     512) and one rounding multiply, so v *. hi *. lo rounds once, like
     [ldexp v n], for every n in [-1534, 1535] (every format with
     ebits <= 11). *)
  let n_lo = int_of_float (Float.floor lo_cut) in
  let n_hi = int_of_float (Float.floor hi_cut) in
  let pow = Array.make (n_hi - n_lo + 1) 0.0 and pow_lo = Array.make (n_hi - n_lo + 1) 0.0 in
  for n = n_lo to n_hi do
    let a = if n < -1022 then n + 512 else if n > 1023 then n - 512 else n in
    pow.(n - n_lo) <- pow2 a;
    pow_lo.(n - n_lo) <- pow2 (n - a)
  done;
  {
    ek_scale = scale;
    ek_hi_cut = hi_cut;
    ek_lo_cut = lo_cut;
    ek_near_cut = Float.ldexp 1.0 (-(prec + 3));
    ek_settled = settled;
    ek_n_lo = n_lo;
    ek_pow = pow;
    ek_pow_lo = pow_lo;
  }

let exp_family func (k : exp_consts) ~pieces =
  let shortcut x =
    let t = x *. k.ek_scale in
    if t > k.ek_hi_cut then Some k.ek_settled.(1)
    else if t < k.ek_lo_cut then Some k.ek_settled.(2)
    else if x <> 0.0 && Float.abs t < k.ek_near_cut then
      Some k.ek_settled.(if x > 0.0 then 4 else 3)
    else None
  in
  (* The hot-path body; Genlibm's batch kernel inlines the same
     expressions.  floor t is truncation plus a fix-up (no out-of-line
     Float.floor); [abs] maps the t - n = -0.0 of t = -0.0 to the +0.0
     that t -. floor t gives (r is never negative otherwise).  r <= 1, so
     p <= pieces and the clamp below is min (pieces - 1) p. *)
  let fpieces = float_of_int pieces in
  let reduce_into (s : scratch) =
    let t = s.sf.sx *. k.ek_scale in
    let ti = int_of_float t in
    let n = ti - Bool.to_int (t < float_of_int ti) in
    let r = Float.abs (t -. float_of_int n) in
    s.sf.sr <- r;
    s.sn <- n;
    let p = int_of_float (r *. fpieces) in
    s.spiece <- p - Bool.to_int (p >= pieces)
  in
  { func; pieces; kernel = Exp_kernel k; shortcut; reduce_into }

(* ---------- logarithm family ---------- *)

(* T[j] = correctly rounded double of log_b(1 + j/2^J), from the oracle.
   Memoized in-process and persisted through the artifact store: the
   table is the one remaining oracle product a warm pipeline run would
   otherwise have to recompute just to rebuild the reduction.  This
   function is the memo's only writer. *)
let table_cache : (string * int, float array) Hashtbl.t = Hashtbl.create 8

let log_table func ~table_bits =
  let key = (Oracle.name func, table_bits) in
  match Hashtbl.find_opt table_cache key with
  | Some t -> t
  | None ->
      let store_key =
        Printf.sprintf "logtab-%s-J%d-v1" (Oracle.name func) table_bits
      in
      let t =
        match
          (Cache.load ~kind:"table" ~key:store_key
            : (float array option, Diag.Error.t) result)
        with
        | Ok (Some t) when Array.length t = 1 lsl table_bits -> t
        | _ ->
            (* Miss, corrupt (already quarantined), unreadable, or
               mis-sized: regenerate — the table is cheap relative to
               the stages that consume it. *)
            let n = 1 lsl table_bits in
            let t =
              Array.init n (fun j ->
                  if j = 0 then 0.0
                  else
                    Oracle.float64 func
                      (1.0 +. (float_of_int j /. float_of_int n)))
            in
            ignore (Cache.store ~kind:"table" ~key:store_key t);
            t
      in
      Hashtbl.replace table_cache key t;
      t

(* [lk_scale] / [lk_exact] come from the registry: the per-exponent
   constant log_b 2 and whether [k * lk_scale] is exact (log2). *)
let log_family func (k : log_consts) ~pieces =
  let shortcut x =
    if x = 0.0 then Some k.lk_settled.(2)
    else if x < 0.0 then Some k.lk_settled.(1)
    else None
  in
  let tsize = float_of_int (Array.length k.lk_table) in
  let inv_tsize = 1.0 /. tsize and fpieces = float_of_int pieces in
  (* Hot-path body.  [Float.frexp] allocates a tuple per call, so the
     decomposition x = 2^k * m, m in [1, 2), is done on the bits: force
     the exponent field to 0 (biased 1023) and read k from the original
     field.  This is exact — the mantissa is untouched — hence
     bit-identical to the frexp route.  Double subnormals (possible only
     for formats with a wider exponent range than binary64's normals)
     are renormalized first by an exact 2^54 scale. *)
  let reduce_into (s : scratch) =
    let x0 = s.sf.sx in
    let scaled = x0 < 0x1p-1022 in
    let x = if scaled then x0 *. 0x1p54 else x0 in
    let bits = Int64.bits_of_float x in
    let e = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7FF in
    let m =
      Int64.float_of_bits
        (Int64.logor
           (Int64.logand bits 0xF_FFFF_FFFF_FFFFL)
           0x3FF0_0000_0000_0000L)
    in
    let ke = e - 1023 - if scaled then 54 else 0 in
    let j = int_of_float ((m -. 1.0) *. tsize) in
    let f = 1.0 +. (float_of_int j *. inv_tsize) in
    let r = (m -. f) /. f in
    let kf = float_of_int ke in
    s.sf.sr <- r;
    s.sf.sc <-
      (if k.lk_exact then kf +. k.lk_table.(j)
       else Float.fma kf k.lk_scale k.lk_table.(j));
    (* r < 2^-J, so p <= pieces: the clamp is min (pieces - 1) p *)
    let p = int_of_float (r *. tsize *. fpieces) in
    s.spiece <- p - Bool.to_int (p >= pieces)
  in
  { func; pieces; kernel = Log_kernel k; shortcut; reduce_into }

let make ?table func ~out_fmt ~pieces ~table_bits =
  match (Funcspec.get func).Funcspec.family with
  | Funcspec.Exp_family { log2_base } ->
      exp_family func (exp_consts ~scale:log2_base ~out_fmt) ~pieces
  | Funcspec.Log_family { k_scale; k_exact } ->
      let lk_table =
        match table with Some t -> t | None -> log_table func ~table_bits
      in
      if Array.length lk_table <> 1 lsl table_bits then
        invalid_arg "Reduction.make: wrong table size";
      log_family func ~pieces
        {
          lk_table;
          lk_scale = k_scale;
          lk_exact = k_exact;
          lk_settled = [| 0.0; Float.nan; Float.neg_infinity; Float.neg_infinity |];
        }

(* The reference output compensation of the element [reduce_into] left
   in [s]: the exact scaling [v * 2^n], or the double addition [c + v].
   The batch kernel's table forms must agree with it bit for bit. *)
let compensate t (s : scratch) v =
  match t.kernel with
  | Exp_kernel _ -> Float.ldexp v s.sn
  | Log_kernel _ -> s.sf.sc +. v
