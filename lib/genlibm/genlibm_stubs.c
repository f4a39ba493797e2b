/* The batch kernel (Genlibm.eval_bits_into): one C call per chunk.

   genlibm.ml keeps the bounds check and the dispatch; each family has
   one entry point that runs every pass over the chunk, in blocks of
   BLOCK elements whose scratch lives on the C stack:

     rlibm_exp_kernel /      per block:
     rlibm_log_kernel        pass 1: decode, shortcut classification,
                             range reduction (and the logarithm's
                             fma(k, k_scale, T[j]) addend), NaN/Inf;
                             then, only when the special table is not
                             empty, its scalar probe;
                             pass 2: piece 0's polynomial sweep
                             (rlibm_sweep, polyeval_stubs.c) into kv,
                             then for each later piece p a sweep into
                             kt and a select of it where the element's
                             piece is p;
                             pass 3: the output compensation v * 2^n or
                             c + v, written where the piece is not -1.

   Each loop is one branch-free body in a static worker over plain
   restrict pointers, so gcc vectorizes it: every choice is a select,
   every table read a gather whose index is in range for every element
   (a settled element reads index 0 or a value it then discards), and
   no 64-bit integer/double conversion appears (AVX2 has no packed form
   of them; the conversions are built from bits, exactly).  The workers
   are built twice on x86_64 (target_clones): an x86-64-v3 clone (AVX2
   and FMA) and a baseline one; tools/check.sh fails unless the v3 clone
   of each pass loop reports "loop vectorized".

   The input format satisfies Softfp.fits_double: every finite value is
   a double, so the decode below is exact.  Every operation is the one
   the reference (Reduction.reduce_into, Reduction.compensate,
   Softfp.to_float) performs on the same doubles, or an exact
   equivalent, so the kernel equals Genlibm.eval_bits bit for bit; the
   test suite checks this exhaustively.  Compiled with -ffp-contract=off
   (no fusing behind the reference's back) and -fno-trapping-math
   (which lets gcc turn floating-point selects into blends; it changes
   no IEEE result, only which exception flags an operation may raise,
   and OCaml never reads them).

   Representation notes.  A pattern is read as OCaml's Int64.to_int
   read it: its low 63 bits, sign-extended from bit 62 to form the key
   of the special table.  Each piece's scheme and coefficients are read
   in place from the Polyeval.compiled records the scalar reference
   evaluates.  The block scratch is plain C (kn and kp hold untagged
   integers); OCaml never sees it.  No function here allocates, raises
   or calls back into OCaml. */

#define CAML_NAME_SPACE
#include <math.h>
#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/bigarray.h>

/* Every float array argument is read as a flat C array of doubles. */
#ifndef FLAT_FLOAT_ARRAY
#error "rlibm stubs need flat float arrays"
#endif

/* gcc builds the clones (the names are gcc's); any other compiler, and
   the sanitized build, compile the baseline code only, so the suite the
   sanitized build runs covers the clone that hosts without AVX2
   serve. */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) \
    && defined(__linux__) && !defined(RLIBM_SANITIZE)
#define RLIBM_CLONES __attribute__((target_clones("arch=x86-64-v3", "default")))
#else
#define RLIBM_CLONES
#endif

/* Built with -DRLIBM_SANITIZE (the dune `sanitize` profile, under ASan
   and UBSan), each kernel checks its window against the src and dst
   buffers, each piece's coefficient count, and the largest index each
   worker used in every table it gathers from, and aborts outside them.
   ASan alone sees an overrun only past a block OCaml allocated with
   malloc (a large one); small pooled blocks have no redzones.  The
   block scratch needs no check: ASan puts redzones around stack
   arrays.  Otherwise the checks are nothing. */
#ifdef RLIBM_SANITIZE
#include <stdio.h>
#include <stdlib.h>
static void outside(const char *what, uintnat i, uintnat size)
{
  fprintf(stderr, "genlibm_stubs.c: %s: index %lu outside a block of %lu\n",
          what, (unsigned long) i, (unsigned long) size);
  abort();
}
/* [n] elements from index 0 (a window), or index [i] (a maximum). */
#define WITHIN(what, i, size) \
  ((uintnat) (i) <= (uintnat) (size) ? (void) 0 : outside(what, (i), (size)))
#define BELOW(what, i, size) \
  ((uintnat) (i) < (uintnat) (size) ? (void) 0 : outside(what, (i), (size)))
#define TRACK(m, i) ((m) = (uintnat) (i) > (m) ? (uintnat) (i) : (m))
#else
#define WITHIN(what, i, size) ((void) 0)
#define BELOW(what, i, size) ((void) 0)
#define TRACK(m, i) ((void) 0)
#endif

/* The largest index a worker gathered with, per table (sanitize only). */
struct reach {
  uintnat scale, settled, table;
};

#define DOUBLES(v) ((double *) (v))
#define WORDS(v) ((intnat *) (v))
#define NDOUBLES(v) (Wosize_val(v) / Double_wosize)
#define BA_DIM(v) ((uintnat) Caml_ba_array_val(v)->dim[0])

static inline double of_bits(uint64_t b)
{
  double d;
  memcpy(&d, &b, sizeof d);
  return d;
}

static inline uint64_t bits_of(double d)
{
  uint64_t b;
  memcpy(&b, &d, sizeof b);
  return b;
}

/* 1.0, 2^52 and 1.5 * 2^52: from 2^52 to 2^53, a double's last bit is
   1. */
#define ONE_BITS UINT64_C(0x3ff0000000000000)
#define TWO52_BITS UINT64_C(0x4330000000000000)
#define MAGIC_BITS UINT64_C(0x4338000000000000)
#define MAGIC 0x1.8p52

/* The double of the integer i, exactly, for |i| < 2^51: it is the low
   significand bits of 1.5 * 2^52 + i. */
static inline double of_int51(int64_t i)
{
  return of_bits(MAGIC_BITS + (uint64_t) i) - MAGIC;
}

/* Decoder fields (Reduction.decoder), plus [hidden_off] = 2^52 - 2^fw;
   the weight table is passed on its own, as a restrict pointer. */
struct decoder {
  int fw;
  uint64_t emask, fmask;
  double hidden_off;
};

static inline struct decoder decoder(intnat fw, intnat emask)
{
  struct decoder d = { (int) fw, (uint64_t) emask, (UINT64_C(1) << fw) - 1,
                       0x1p52 - (double) (UINT64_C(1) << fw) };
  return d;
}

/* Genlibm.decode: the integer significand times the signed weight of
   the sign and exponent fields, an exact product.  The significand m
   (fraction plus the hidden bit unless the exponent field is 0, below
   2^53) is (2^52 + fraction) - (2^52 - hidden): both operands and the
   result are doubles, so the difference is exact. */
static inline double decode(const double *scale, struct decoder d,
                            uint64_t u, uint64_t se)
{
  double m = of_bits(TWO52_BITS | (u & d.fmask))
             - ((se & d.emask) != 0 ? d.hidden_off : 0x1p52);
  return m * scale[se];
}

/* The sign and exponent fields, the index of the decode table. */
static inline uint64_t sign_exp(struct decoder d, uint64_t u)
{
  return (u >> d.fw) & (2 * d.emask + 1);
}

/* The special-table probe (Genlibm.find_special): a branch-free binary
   search over the sorted keys, comparing tagged words (tagging keeps
   the order).  The index of the key, or -1. */
static inline intnat find_special(const intnat *keys, intnat n, uint64_t u)
{
  intnat tk = (intnat) ((u << 1) | 1); /* Val_long of the sign-extended key */
  intnat base = 0, len = n;
  while (len > 1) {
    intnat half = len >> 1;
    base += half * (keys[base + half] <= tk);
    len -= half;
  }
  return keys[base] == tk ? base : -1;
}

/* The special table's override, after the vector pass: a finite
   pattern among the keys settles its element.  The table is empty for
   most functions, and then this loop does not run. */
static void specials(value keys, value vals, const int64_t *src,
                     double *d, intnat *kp, intnat len, int fw,
                     uint64_t emask)
{
  intnat n = (intnat) Wosize_val(keys);
  if (n == 0) return;
  for (intnat o = 0; o < len; o++) {
    uint64_t u = (uint64_t) src[o] & UINT64_C(0x7fffffffffffffff);
    intnat si = find_special(WORDS(keys), n, u);
    if (si >= 0 && ((u >> fw) & emask) != emask) {
      BELOW("special value", si, NDOUBLES(vals));
      kp[o] = -1;
      d[o] = DOUBLES(vals)[si];
    }
  }
}

/* The NaN/Inf result of a pattern whose exponent field is all ones. */
static inline double nonfinite(uint64_t u, uint64_t fmask, int sign_shift,
                               double nan_v, double neg_inf_v)
{
  return (u & fmask) != 0 ? nan_v
         : ((u >> sign_shift) & 1) ? neg_inf_v
         : INFINITY;
}

/* The piece of a polynomial element.  Both families hand in y = r
   scaled onto [0, pieces] (r in [0, 1] for the exponentials, r * 2^J in
   [0, 1) for the logarithms, settled elements included), so the int32
   truncation is defined, and only y = pieces, r = 1 exactly, needs the
   min. */
static inline int64_t piece_of(double y, int64_t last)
{
  int64_t p = (int32_t) y;
  return p < last ? p : last;
}

/* Pass 1, exponential family (Reduction.exp_family): t = x * scale;
   the shortcut's comparison bits index the settled value and force the
   piece to -1; a settled element reduces t = 0 instead, so its table
   index is 0.  n = floor t is the nearest integer of t (the last bits
   of t + 1.5 * 2^52, |t| < 2^51 on every reduced element) less one
   where that is above t; r = |t - n| (so t = -0.0 gives r = +0.0); kn
   = n - n_lo indexes the compensation tables. */
struct exp_consts {
  double scale, hi_cut, lo_cut, near_cut, nan_v, neg_inf_v;
  intnat n_lo, pieces;
  int sign_shift;
};

RLIBM_CLONES
static void exp_pass(intnat len, const int64_t *restrict src,
                     double *restrict d, double *restrict kr,
                     intnat *restrict kn, intnat *restrict kp,
                     const double *restrict scale, const double *restrict sv,
                     struct decoder dc, struct exp_consts e,
                     struct reach *reach)
{
  double fpieces = (double) e.pieces;
  (void) reach;
  for (intnat o = 0; o < len; o++) { /* vec: exp pass 1 */
    uint64_t u = (uint64_t) src[o] & UINT64_C(0x7fffffffffffffff);
    uint64_t se = sign_exp(dc, u);
    double x = decode(scale, dc, u, se);
    double t = x * e.scale;
    int64_t c_hi = t > e.hi_cut, c_lo = t < e.lo_cut;
    int64_t c_near = (x != 0.0) & (fabs(t) < e.near_cut);
    int64_t inf_nan = (se & dc.emask) == dc.emask;
    int64_t settle = c_hi | c_lo | c_near | inf_nan;
    int64_t si = c_hi + 2 * c_lo + c_near * (3 + (x > 0.0));
    TRACK(reach->scale, se);
    TRACK(reach->settled, si);
    double v = sv[si];
    d[o] = inf_nan ? nonfinite(u, dc.fmask, e.sign_shift, e.nan_v, e.neg_inf_v)
                   : v;
    /* The selects on settle and above are masks on the bits: written
       as ?: they made gcc branch on the vector of conditions. */
    uint64_t keep = (uint64_t) settle - 1; /* all ones unless settled */
    double tc = of_bits(bits_of(t) & keep);
    double big = tc + MAGIC;
    double near = big - MAGIC;
    int64_t above = near > tc;
    int64_t n = (int64_t) (bits_of(big) - MAGIC_BITS) - above;
    double fix = of_bits(-(uint64_t) above & ONE_BITS); /* 1.0 or 0.0 */
    double r = fabs(tc - (near - fix));
    kr[o] = r;
    kn[o] = (int64_t) ((uint64_t) (n - e.n_lo) & keep);
    kp[o] = piece_of(r * fpieces, e.pieces - 1) | -settle;
  }
}

/* Pass 1, logarithm family (Reduction.log_family): x = 2^k * m with m
   in [1, 2), then j, F = 1 + j/2^J, r = (m - F)/F and the addend
   c = k + T[j] (log2) or fma(k, k_scale, T[j]).  A nonzero exponent
   field is a normal double's (the format fits in binary64), so k and
   m = 1.f come straight from the fields.  Zeros and subnormals take
   the reference's own steps: decode, an exact 2^54 rescale below
   2^-1022 (the subnormals of ebits = 11), and k and m from the
   double's fields; both forms are computed and one is selected.  j is
   the top J bits of m's significand field, F is m with the bits below
   them cleared: (m - 1) * 2^J is exact, so truncating it reads those
   bits.  Only positive inputs reach the polynomial, so the decode uses
   the positive weight. */
struct log_consts {
  double k_scale, sub_weight, nan_v, neg_inf_v;
  intnat bias, pieces, k_exact;
  int sign_shift, tbits;
};

RLIBM_CLONES
static void log_pass(intnat len, const int64_t *restrict src,
                     double *restrict d, double *restrict kr,
                     double *restrict kc, intnat *restrict kp,
                     const double *restrict tbl, const double *restrict sv,
                     struct decoder dc, struct log_consts l,
                     struct reach *reach)
{
  const uint64_t magnitude = (UINT64_C(1) << l.sign_shift) - 1;
  const uint64_t frac52 = UINT64_C(0xfffffffffffff);
  const int low = 52 - l.tbits;
  const uint64_t jmask = (UINT64_C(1) << l.tbits) - 1;
  const double tsize = (double) (jmask + 1), fpieces = (double) l.pieces;
  (void) reach;
  for (intnat o = 0; o < len; o++) { /* vec: log pass 1 */
    uint64_t u = (uint64_t) src[o] & UINT64_C(0x7fffffffffffffff);
    uint64_t be = (u >> dc.fw) & dc.emask, frac = u & dc.fmask;
    int64_t neg = (u >> l.sign_shift) & 1;
    int64_t zero = (u & magnitude) == 0;
    int64_t inf_nan = be == dc.emask;
    int64_t si = neg | (zero << 1);
    TRACK(reach->settled, si);
    double v = sv[si];
    d[o] = inf_nan ? nonfinite(u, dc.fmask, l.sign_shift, l.nan_v, l.neg_inf_v)
                   : v;
    /* zero or subnormal: decode, rescale, split the double */
    double x = (of_bits(TWO52_BITS | frac) - 0x1p52) * l.sub_weight;
    int64_t scaled = x < 0x1p-1022;
    uint64_t b = bits_of(scaled ? x * 0x1p54 : x);
    int64_t k_sub = (int64_t) (b >> 52) - 1023 - 54 * scaled;
    uint64_t mb_sub = (b & frac52) | ONE_BITS;
    /* normal */
    int64_t k_norm = (int64_t) be - l.bias;
    uint64_t mb_norm = (frac << (52 - dc.fw)) | ONE_BITS;
    uint64_t mb = be != 0 ? mb_norm : mb_sub;
    int64_t k = be != 0 ? k_norm : k_sub;
    uint64_t j = (mb >> low) & jmask;
    TRACK(reach->table, j);
    double m = of_bits(mb), f = of_bits(mb & ~((UINT64_C(1) << low) - 1));
    double r = (m - f) / f;
    double kf = of_int51(k);
    kr[o] = r;
    kc[o] = l.k_exact ? kf + tbl[j] : fma(kf, l.k_scale, tbl[j]);
    kp[o] = neg | zero | inf_nan ? -1
            : piece_of(r * tsize * fpieces, l.pieces - 1);
  }
}

/* After the sweep of piece [p] > 0 into [kt]: kv takes its results
   where the element's piece is p (piece 0's sweep wrote kv whole). */
RLIBM_CLONES
static void select_pass(intnat len, const intnat *restrict kp, intnat p,
                        const double *restrict kt, double *restrict kv)
{
  for (intnat o = 0; o < len; o++) /* vec: select */
    kv[o] = kp[o] == p ? kt[o] : kv[o];
}

/* The one polynomial evaluator, polyeval_stubs.c (Polyeval.eval_into's
   sweep). */
void rlibm_sweep(intnat code, intnat len, const double *c,
                 const double *src, double *dst, intnat lo, intnat hi);

/* Fields of a Polyeval.compiled record (layout in polyeval.mli); a
   scheme's constructor index is its sweep code. */
#define PIECE_SCHEME(c) Long_val(Field((c), 0))
#define PIECE_DATA(c) Field((c), 2)

/* Pass 2 over a block: each piece of [pieces] sweeps the whole block;
   piece 0's results go to kv, each later piece's to kt and are
   selected into kv.  At the one or two pieces of most functions this
   is cheaper than grouping the elements by piece. */
static void poly_pass(value pieces, intnat len, const double *kr,
                      const intnat *kp, double *kv, double *kt)
{
  for (intnat p = 0; p < (intnat) Wosize_val(pieces); p++) {
    value c = Field(pieces, p), data = PIECE_DATA(c);
    WITHIN("piece coefficients", NDOUBLES(data), 8);
    rlibm_sweep(PIECE_SCHEME(c), (intnat) NDOUBLES(data), DOUBLES(data), kr,
                p == 0 ? kv : kt, 0, len);
    if (p > 0) select_pass(len, kp, p, kt, kv);
  }
}

/* Compensation, exponential family: dst = v * 2^n as v * pow[i] *
   pow_lo[i] (Reduction.exp_consts), where the piece is not -1; a
   settled element's index is 0, in range. */
RLIBM_CLONES
static void exp_compensate(intnat len, double *restrict d,
                           const intnat *restrict kp,
                           const double *restrict kv,
                           const intnat *restrict kn,
                           const double *restrict hi,
                           const double *restrict lo_f, struct reach *reach)
{
  (void) reach;
  for (intnat o = 0; o < len; o++) { /* vec: exp compensate */
    intnat i = kn[o];
    TRACK(reach->table, i);
    double c = kv[o] * hi[i] * lo_f[i];
    d[o] = kp[o] >= 0 ? c : d[o];
  }
}

/* Compensation, logarithm family: dst = c + v where the piece is not
   -1. */
RLIBM_CLONES
static void log_compensate(intnat len, double *restrict d,
                           const intnat *restrict kp,
                           const double *restrict kv,
                           const double *restrict kc)
{
  for (intnat o = 0; o < len; o++) /* vec: log compensate */
    d[o] = kp[o] >= 0 ? kc[o] + kv[o] : d[o];
}

/* Elements per block.  The fastest of 256..2048 in a one-domain probe
   at 16 pieces, within 3% at one or two (DESIGN.md); its scratch (kr,
   kv, kt, kp, and kn or kc) is 5 * BLOCK * 8 B = 20 KB of stack. */
#define BLOCK 512

value rlibm_exp_kernel(value src, intnat lo, intnat len, value dst,
                       value pieces, value dscale, intnat fw, intnat emask,
                       double scale, double hi_cut, double lo_cut,
                       double near_cut, value settled, intnat n_lo,
                       value pow, value pow_lo, value keys, value vals,
                       intnat sign_shift, double nan_v, double neg_inf_v)
{
  const int64_t *s = (const int64_t *) Caml_ba_data_val(src) + lo;
  double *d = (double *) Caml_ba_data_val(dst) + lo;
  const struct decoder dc = decoder(fw, emask);
  const struct exp_consts e = { scale, hi_cut, lo_cut, near_cut, nan_v,
                                neg_inf_v, n_lo,
                                (intnat) Wosize_val(pieces),
                                (int) sign_shift };
  struct reach reach = { 0, 0, 0 };
  double kr[BLOCK], kv[BLOCK], kt[BLOCK];
  intnat kn[BLOCK], kp[BLOCK];
  WITHIN("exp src", lo + len, BA_DIM(src));
  WITHIN("exp dst", lo + len, BA_DIM(dst));
  for (intnat b = 0; b < len; b += BLOCK) {
    intnat n = len - b < BLOCK ? len - b : BLOCK;
    exp_pass(n, s + b, d + b, kr, kn, kp, DOUBLES(dscale), DOUBLES(settled),
             dc, e, &reach);
    specials(keys, vals, s + b, d + b, kp, n, (int) fw, (uint64_t) emask);
    poly_pass(pieces, n, kr, kp, kv, kt);
    exp_compensate(n, d + b, kp, kv, kn, DOUBLES(pow), DOUBLES(pow_lo),
                   &reach);
  }
  if (len > 0) {
    BELOW("exp decode scale", reach.scale, NDOUBLES(dscale));
    BELOW("exp settled", reach.settled, NDOUBLES(settled));
    BELOW("exp pow", reach.table, NDOUBLES(pow));
    BELOW("exp pow_lo", reach.table, NDOUBLES(pow_lo));
  }
  return Val_unit;
}

value rlibm_exp_kernel_byte(value *argv, int argn)
{
  (void) argn;
  return rlibm_exp_kernel(argv[0], Long_val(argv[1]), Long_val(argv[2]),
                          argv[3], argv[4], argv[5], Long_val(argv[6]),
                          Long_val(argv[7]), Double_val(argv[8]),
                          Double_val(argv[9]), Double_val(argv[10]),
                          Double_val(argv[11]), argv[12], Long_val(argv[13]),
                          argv[14], argv[15], argv[16], argv[17],
                          Long_val(argv[18]), Double_val(argv[19]),
                          Double_val(argv[20]));
}

value rlibm_log_kernel(value src, intnat lo, intnat len, value dst,
                       value pieces, value dscale, intnat fw, intnat emask,
                       intnat bias, intnat sign_shift, value table,
                       double k_scale, intnat k_exact, value settled,
                       value keys, value vals, double nan_v,
                       double neg_inf_v)
{
  const int64_t *s = (const int64_t *) Caml_ba_data_val(src) + lo;
  double *d = (double *) Caml_ba_data_val(dst) + lo;
  const struct decoder dc = decoder(fw, emask);
  uintnat tsize = NDOUBLES(table);
  int tbits = 0;
  while (((uintnat) 1 << tbits) < tsize) tbits++; /* T has 2^J entries */
  const struct log_consts l = { k_scale, DOUBLES(dscale)[0], nan_v,
                                neg_inf_v, bias,
                                (intnat) Wosize_val(pieces), k_exact,
                                (int) sign_shift, tbits };
  struct reach reach = { 0, 0, 0 };
  double kr[BLOCK], kv[BLOCK], kt[BLOCK], kc[BLOCK];
  intnat kp[BLOCK];
  WITHIN("log src", lo + len, BA_DIM(src));
  WITHIN("log dst", lo + len, BA_DIM(dst));
  for (intnat b = 0; b < len; b += BLOCK) {
    intnat n = len - b < BLOCK ? len - b : BLOCK;
    log_pass(n, s + b, d + b, kr, kc, kp, DOUBLES(table), DOUBLES(settled),
             dc, l, &reach);
    specials(keys, vals, s + b, d + b, kp, n, (int) fw, (uint64_t) emask);
    poly_pass(pieces, n, kr, kp, kv, kt);
    log_compensate(n, d + b, kp, kv, kc);
  }
  if (len > 0) {
    BELOW("log table", reach.table, tsize);
    BELOW("log settled", reach.settled, NDOUBLES(settled));
  }
  return Val_unit;
}

value rlibm_log_kernel_byte(value *argv, int argn)
{
  (void) argn;
  return rlibm_log_kernel(
      argv[0], Long_val(argv[1]), Long_val(argv[2]), argv[3], argv[4],
      argv[5], Long_val(argv[6]), Long_val(argv[7]), Long_val(argv[8]),
      Long_val(argv[9]), argv[10], Double_val(argv[11]), Long_val(argv[12]),
      argv[13], argv[14], argv[15], Double_val(argv[16]),
      Double_val(argv[17]));
}

/* Genlibm.decode_bits: the decode above on one pattern. */
double rlibm_decode(value dscale, intnat fw, intnat emask, int64_t x)
{
  const struct decoder dc = decoder(fw, emask);
  uint64_t u = (uint64_t) x & UINT64_C(0x7fffffffffffffff);
  return decode(DOUBLES(dscale), dc, u, sign_exp(dc, u));
}

value rlibm_decode_byte(value dscale, value fw, value emask, value x)
{
  return caml_copy_double(rlibm_decode(dscale, Long_val(fw), Long_val(emask),
                                       Int64_val(x)));
}
