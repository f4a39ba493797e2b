/* The per-element passes of the batch kernel (Genlibm.eval_bits_into).

   genlibm.ml keeps the bounds check, the per-domain scratch and the
   dispatch over pieces (Polyeval.eval_into); every loop over the
   elements of a chunk is here:

     rlibm_exp_reduce /    pass 1: decode, shortcut classification,
     rlibm_log_reduce      range reduction (and the logarithm's
                           fma(k, k_scale, T[j]) addend), then the
                           NaN/Inf and special-table override;
     rlibm_kernel_sort     pass 2: grouping by piece, gathering the
                           reduced inputs into piece order;
     rlibm_exp_scatter /   pass 3, after the polynomials: the output
     rlibm_log_scatter     compensation v * 2^n or c + v.

   The input format satisfies Softfp.fits_double: every finite value is
   a double, so the decode below is exact.  Every operation is the one
   the reference (Reduction.reduce_into, Reduction.compensate,
   Softfp.to_float) performs on the same doubles, or an exact
   equivalent, so the kernel equals Genlibm.eval_bits bit for bit; the
   test suite checks this exhaustively.  Compiled with
   -ffp-contract=off.

   Representation notes.  A pattern is read as OCaml's Int64.to_int
   read it: its low 63 bits, sign-extended from bit 62 to form the key
   of the special table.  The int array scratch (kp, kn, kidx, kcount,
   koff) holds tagged OCaml ints, which the GC may scan.  No function
   here allocates, raises or calls back into OCaml. */

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

#if defined(__x86_64__) && defined(__GNUC__) && defined(__linux__)
#define RLIBM_FMA_CLONES __attribute__((target_clones("fma", "default")))
#else
#define RLIBM_FMA_CLONES
#endif

/* Built with -DRLIBM_SANITIZE (the dune `sanitize` profile, under ASan
   and UBSan), every scratch access checks its index against the OCaml
   block's own size and aborts outside it.  ASan alone sees an overrun
   only past a block OCaml allocated with malloc (a large one); small
   pooled blocks have no redzones.  Otherwise the check is nothing. */
#ifdef RLIBM_SANITIZE
#include <stdio.h>
#include <stdlib.h>
static void out_of_block(int line, intnat i, uintnat size)
{
  fprintf(stderr, "genlibm_stubs.c:%d: index %ld outside a block of %lu\n",
          line, (long) i, (unsigned long) size);
  abort();
}
#define IN_BLOCK(n, i) \
  ((uintnat) (i) < (n) ? (void) 0 : out_of_block(__LINE__, (i), (n)))
#else
#define IN_BLOCK(n, i) ((void) 0)
#endif

/* Plain (not Field's volatile) access: the scratch is domain-local. */
#define DOUBLES(v) ((double *) (v))
#define WORDS(v) ((value *) (v))
#define INT_GET(a, i) (IN_BLOCK(Wosize_val(a), i), Long_val(WORDS(a)[i]))
#define INT_SET(a, i, x) (IN_BLOCK(Wosize_val(a), i), WORDS(a)[i] = Val_long(x))
#define DBL_SET(a, i, x) \
  (IN_BLOCK(Wosize_val(a) / Double_wosize, i), DOUBLES(a)[i] = (x))

static inline uint64_t pattern(const int64_t *src, intnat i)
{
  return (uint64_t) src[i] & UINT64_C(0x7fffffffffffffff);
}

/* Decoder fields (Reduction.decoder). */
struct decoder {
  const double *scale;
  intnat fw, emask;
};

/* Genlibm.decode: the integer significand times the signed weight of
   the sign and exponent fields, an exact product. */
static inline double decode(const struct decoder *d, uint64_t u)
{
  intnat se = (intnat) (u >> d->fw) & (2 * d->emask + 1);
  intnat m = (intnat) (u & ((UINT64_C(1) << d->fw) - 1))
             | (((intnat) 1 << d->fw) * ((se & d->emask) != 0));
  return (double) m * d->scale[se];
}

/* The special-table probe (Genlibm.find_special): a branch-free binary
   search over the sorted keys, comparing tagged words (tagging keeps
   the order).  The index of the key, or -1. */
static inline intnat find_special(value keys, intnat n, uint64_t u)
{
  if (n == 0) return -1;
  intnat tk = (intnat) ((u << 1) | 1); /* Val_long of the sign-extended key */
  intnat base = 0, len = n;
  while (len > 1) {
    intnat half = len >> 1;
    base += half * ((intnat) WORDS(keys)[base + half] <= tk);
    len -= half;
  }
  return (intnat) WORDS(keys)[base] == tk ? base : -1;
}

/* The override that follows the reduction of element [o]: NaN and
   infinity patterns, then the special table; both settle the element. */
struct override {
  value keys;
  const double *vals;
  intnat nkeys, fw, emask, sign_shift;
  double nan_v, neg_inf_v;
};

static inline void override(const struct override *ov, uint64_t u,
                            value kp, intnat o, double *d)
{
  intnat si = find_special(ov->keys, ov->nkeys, u);
  if ((intnat) (u >> ov->fw & (uint64_t) ov->emask) == ov->emask) {
    INT_SET(kp, o, -1);
    *d = (u & ((UINT64_C(1) << ov->fw) - 1)) != 0 ? ov->nan_v
         : ((u >> ov->sign_shift) & 1) ? ov->neg_inf_v
         : INFINITY;
  } else if (si >= 0) {
    INT_SET(kp, o, -1);
    *d = ov->vals[si];
  }
}

/* The piece index of a reduced input scaled onto [0, pieces], clamped
   into range first: converting a NaN or out-of-range double to an
   integer is undefined in C.  Settled elements reach this with values
   that are discarded. */
static inline intnat piece_of(double q, double fpieces, intnat pieces)
{
  intnat p = (intnat) (q >= 0.0 && q <= fpieces ? q : 0.0);
  return p - (p >= pieces);
}

/* Pass 1, exponential family (Reduction.exp_family): t = x * scale,
   the shortcut's comparison bits index the settled value and force the
   piece to -1; n = floor t by truncation plus a fix-up, r = |t - n|
   (so t = -0.0 gives r = +0.0), kn = n - n_lo indexes the compensation
   tables. */
value rlibm_exp_reduce(value src, intnat lo, intnat len, value dst,
                       value kr, value kn, value kp,
                       value dscale, intnat fw, intnat emask,
                       double scale, double hi_cut, double lo_cut,
                       double near_cut, value settled, intnat n_lo,
                       intnat pieces, value keys, value vals,
                       intnat sign_shift, double nan_v, double neg_inf_v)
{
  const struct decoder dc = { DOUBLES(dscale), fw, emask };
  const struct override ov = { keys, DOUBLES(vals), (intnat) Wosize_val(keys),
                               fw, emask, sign_shift, nan_v, neg_inf_v };
  const double *sv = DOUBLES(settled);
  const int64_t *s = (const int64_t *) Caml_ba_data_val(src) + lo;
  double *d = (double *) Caml_ba_data_val(dst) + lo;
  double fpieces = (double) pieces;
  for (intnat o = 0; o < len; o++) {
    uint64_t u = pattern(s, o);
    double x = decode(&dc, u);
    double t = x * scale;
    intnat c_hi = t > hi_cut, c_lo = t < lo_cut;
    intnat c_near = (x != 0.0) & (fabs(t) < near_cut);
    d[o] = sv[c_hi + 2 * c_lo + c_near * (3 + (x > 0.0))];
    /* |t| < 2^62 on every unsettled element; clamp the rest */
    double tc = fabs(t) < 0x1p62 ? t : 0.0;
    intnat ti = (intnat) tc;
    intnat n = ti - (tc < (double) ti);
    double r = fabs(tc - (double) n);
    INT_SET(kp, o, piece_of(r * fpieces, fpieces, pieces) | -(c_hi | c_lo | c_near));
    DBL_SET(kr, o, r);
    INT_SET(kn, o, n - n_lo);
    override(&ov, u, kp, o, &d[o]);
  }
  return Val_unit;
}

value rlibm_exp_reduce_byte(value *argv, int argn)
{
  (void) argn;
  return rlibm_exp_reduce(argv[0], Long_val(argv[1]), Long_val(argv[2]),
                          argv[3], argv[4], argv[5], argv[6], argv[7],
                          Long_val(argv[8]), Long_val(argv[9]),
                          Double_val(argv[10]), Double_val(argv[11]),
                          Double_val(argv[12]), Double_val(argv[13]),
                          argv[14], Long_val(argv[15]), Long_val(argv[16]),
                          argv[17], argv[18], Long_val(argv[19]),
                          Double_val(argv[20]), Double_val(argv[21]));
}

/* Pass 1, logarithm family (Reduction.log_family): x = 2^k * m with m
   in [1, 2), then j, F = 1 + j/2^J, r = (m - F)/F and the addend
   c = k + T[j] (log2) or fma(k, k_scale, T[j]).  A nonzero exponent
   field is a normal double's (the format fits in binary64), so k and
   m = 1.f come straight from the fields.  Zeros and subnormals take
   the reference's own steps: decode, an exact 2^54 rescale below
   2^-1022 (the subnormals of ebits = 11), and k and m from the
   double's fields.  Only positive inputs reach the polynomial, so the
   decode uses the positive weight. */
RLIBM_FMA_CLONES
value rlibm_log_reduce(value src, intnat lo, intnat len, value dst,
                       value kr, value kc, value kp,
                       value dscale, intnat fw, intnat emask, intnat bias,
                       intnat sign_shift, double mscale, value table,
                       double k_scale, intnat k_exact, value settled,
                       intnat pieces, value keys, value vals,
                       double nan_v, double neg_inf_v)
{
  const struct override ov = { keys, DOUBLES(vals), (intnat) Wosize_val(keys),
                               fw, emask, sign_shift, nan_v, neg_inf_v };
  const double *tbl = DOUBLES(table), *sv = DOUBLES(settled);
  const int64_t *s = (const int64_t *) Caml_ba_data_val(src) + lo;
  double *d = (double *) Caml_ba_data_val(dst) + lo;
  double tsize = (double) (Wosize_val(table) / Double_wosize);
  double inv_tsize = 1.0 / tsize, fpieces = (double) pieces;
  double sub_weight = DOUBLES(dscale)[0];
  uint64_t fmask = (UINT64_C(1) << fw) - 1;
  uint64_t magnitude = (UINT64_C(1) << sign_shift) - 1;
  for (intnat o = 0; o < len; o++) {
    uint64_t u = pattern(s, o);
    intnat be = (intnat) (u >> fw) & emask;
    intnat neg = (intnat) (u >> sign_shift) & 1;
    intnat zero = (u & magnitude) == 0;
    intnat settle = neg | zero;
    d[o] = sv[neg | (zero << 1)];
    double m;
    intnat k;
    if (be != 0) {
      m = (double) (intnat) ((u & fmask) | (fmask + 1)) * mscale;
      k = be - bias;
    } else {
      double x = (double) (intnat) (u & fmask) * sub_weight;
      intnat scaled = x < 0x1p-1022;
      uint64_t b;
      x = scaled ? x * 0x1p54 : x;
      memcpy(&b, &x, sizeof b);
      k = (intnat) (b >> 52) - 1023 - 54 * scaled;
      b = (b & UINT64_C(0xfffffffffffff)) | UINT64_C(0x3ff0000000000000);
      memcpy(&m, &b, sizeof m);
    }
    intnat j = (intnat) ((m - 1.0) * tsize); /* m in [1, 2): j in range */
    double f = 1.0 + (double) j * inv_tsize;
    double r = (m - f) / f;
    double kf = (double) k;
    DBL_SET(kr, o, r);
    DBL_SET(kc, o, k_exact ? kf + tbl[j] : fma(kf, k_scale, tbl[j]));
    INT_SET(kp, o, piece_of(r * tsize * fpieces, fpieces, pieces) | -settle);
    override(&ov, u, kp, o, &d[o]);
  }
  return Val_unit;
}

value rlibm_log_reduce_byte(value *argv, int argn)
{
  (void) argn;
  return rlibm_log_reduce(
      argv[0], Long_val(argv[1]), Long_val(argv[2]), argv[3], argv[4],
      argv[5], argv[6], argv[7], Long_val(argv[8]), Long_val(argv[9]),
      Long_val(argv[10]), Long_val(argv[11]), Double_val(argv[12]),
      argv[13], Double_val(argv[14]), Long_val(argv[15]), argv[16],
      Long_val(argv[17]), argv[18], argv[19], Double_val(argv[20]),
      Double_val(argv[21]));
}

/* Pass 2: group the positions of the polynomial elements by piece, by a
   counting sort whose last bucket (index npieces) collects the settled
   elements.  kidx lists them piece after piece, kpr holds their reduced
   inputs in the same order, packed for the polynomials; kcount gets each
   piece's group size and koff one past its end.  Returns the number of
   polynomial elements. */
intnat rlibm_kernel_sort(value kp, value kr, value kidx, value kpr,
                         value kcount, value koff, intnat len, intnat npieces)
{
  const double *r = DOUBLES(kr);
  for (intnat q = 0; q <= npieces; q++) INT_SET(kcount, q, 0);
  for (intnat o = 0; o < len; o++) {
    intnat q = INT_GET(kp, o);
    q = q < 0 ? npieces : q;
    INT_SET(kcount, q, INT_GET(kcount, q) + 1);
  }
  intnat acc = 0;
  for (intnat q = 0; q <= npieces; q++) {
    INT_SET(koff, q, acc);
    acc += INT_GET(kcount, q);
  }
  for (intnat o = 0; o < len; o++) {
    intnat q = INT_GET(kp, o);
    q = q < 0 ? npieces : q;
    intnat at = INT_GET(koff, q);
    INT_SET(kidx, at, o);
    DBL_SET(kpr, at, r[o]);
    INT_SET(koff, q, at + 1);
  }
  return INT_GET(koff, npieces - 1);
}

value rlibm_kernel_sort_byte(value *argv, int argn)
{
  (void) argn;
  return Val_long(rlibm_kernel_sort(argv[0], argv[1], argv[2], argv[3],
                                    argv[4], argv[5], Long_val(argv[6]),
                                    Long_val(argv[7])));
}

/* Pass 3, exponential family: dst = v * 2^n as v * pow[i] * pow_lo[i]
   (Reduction.exp_consts), for the grouped positions [0, len). */
value rlibm_exp_scatter(value dst, intnat lo, value kidx, value kv, value kn,
                        value pow, value pow_lo, intnat len)
{
  double *d = (double *) Caml_ba_data_val(dst) + lo;
  const double *v = DOUBLES(kv), *hi = DOUBLES(pow), *lo_f = DOUBLES(pow_lo);
  for (intnat t = 0; t < len; t++) {
    intnat o = INT_GET(kidx, t);
    intnat i = INT_GET(kn, o);
    IN_BLOCK(Caml_ba_array_val(dst)->dim[0] - lo, o);
    d[o] = v[t] * hi[i] * lo_f[i];
  }
  return Val_unit;
}

value rlibm_exp_scatter_byte(value *argv, int argn)
{
  (void) argn;
  return rlibm_exp_scatter(argv[0], Long_val(argv[1]), argv[2], argv[3],
                           argv[4], argv[5], argv[6], Long_val(argv[7]));
}

/* Pass 3, logarithm family: dst = c + v. */
value rlibm_log_scatter(value dst, intnat lo, value kidx, value kv, value kc,
                        intnat len)
{
  double *d = (double *) Caml_ba_data_val(dst) + lo;
  const double *v = DOUBLES(kv), *c = DOUBLES(kc);
  for (intnat t = 0; t < len; t++) {
    intnat o = INT_GET(kidx, t);
    IN_BLOCK(Caml_ba_array_val(dst)->dim[0] - lo, o);
    d[o] = c[o] + v[t];
  }
  return Val_unit;
}

value rlibm_log_scatter_byte(value *argv, int argn)
{
  (void) argn;
  return rlibm_log_scatter(argv[0], Long_val(argv[1]), argv[2], argv[3],
                           argv[4], Long_val(argv[5]));
}

/* Genlibm.decode_bits: the decode above on one pattern. */
double rlibm_decode(value dscale, intnat fw, intnat emask, int64_t x)
{
  const struct decoder dc = { DOUBLES(dscale), fw, emask };
  return decode(&dc, (uint64_t) x & UINT64_C(0x7fffffffffffffff));
}

value rlibm_decode_byte(value dscale, value fw, value emask, value x)
{
  return caml_copy_double(rlibm_decode(dscale, Long_val(fw), Long_val(emask),
                                       Int64_val(x)));
}
