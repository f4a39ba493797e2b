/* Native batch evaluators of the five schemes: rlibm_sweep, which
   Polyeval.eval_into calls through rlibm_poly_sweep and the batch
   kernel (genlibm_stubs.c) calls directly, once per piece and block.

   One straight-line body per (scheme, length), for lengths 0..7.  Each
   body performs the operations of the scheme's Expr DAG (polyeval.ml's
   builders) in the DAG's order and with the DAG's operand order: every
   Add and Mul is one IEEE operation, every Fma one fused operation.  The
   file is compiled with -ffp-contract=off, so no a * b + c of a non-FMA
   scheme is fused behind the DAG's back; the contraction witness in the
   test suite checks this.

   On x86_64 the sweep is built twice (target_clones): an x86-64-v3
   clone (AVX2 and FMA), where fma() is the vfmadd instruction and each
   body runs four elements per vector, and a baseline clone, where fma()
   is libm's correctly rounded fma.  Both give the same bits: the lanes
   of a vector perform each element's operations in the same order.
   The loader picks the clone once, by the CPU's features.  Only gcc
   builds the clones; any other compiler, and the sanitized build
   (-DRLIBM_SANITIZE), compile the baseline code only, so the suite the
   sanitized build runs covers the clone that hosts without AVX2 serve.
   Besides -ffp-contract=off the file is compiled with
   -fno-trapping-math, which changes no IEEE result (see the dune
   file). */

#define CAML_NAME_SPACE
#include <math.h>
#include <string.h>
#include <caml/mlvalues.h>
#ifdef RLIBM_SANITIZE
#include <stdio.h>
#include <stdlib.h>
#endif

/* The coefficient and value arrays are read as flat C arrays of doubles. */
#ifndef FLAT_FLOAT_ARRAY
#error "rlibm stubs need flat float arrays"
#endif

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) \
    && defined(__linux__) && !defined(RLIBM_SANITIZE)
#define RLIBM_CLONES __attribute__((target_clones("arch=x86-64-v3", "default")))
#else
#define RLIBM_CLONES
#endif

/* Scheme codes: the constructor index of Polyeval.scheme. */
enum { HORNER = 0, HORNER_FMA = 1, KNUTH = 2, ESTRIN = 3, ESTRIN_FMA = 4 };

/* Horner: acc <- Add (Const i, Mul (acc, Var)), from acc = c[d]. */
#define HA(i, acc) (k[i] + (acc) * x)
/* Horner-FMA: acc <- Fma (acc, Var, Const i). */
#define HF(i, acc) fma((acc), x, k[i])
/* One Estrin pair at power y: Add (lo, Mul (hi, y)) or Fma (hi, y, lo). */
#define EA(lo, hi, y) ((lo) + (hi) * (y))
#define EF(lo, hi, y) fma((hi), (y), (lo))

static inline double horner2(double x, const double *k) { return HA(0, k[1]); }
static inline double horner3(double x, const double *k) { return HA(0, HA(1, k[2])); }
static inline double horner4(double x, const double *k) { return HA(0, HA(1, HA(2, k[3]))); }
static inline double horner5(double x, const double *k) { return HA(0, HA(1, HA(2, HA(3, k[4])))); }
static inline double horner6(double x, const double *k)
{ return HA(0, HA(1, HA(2, HA(3, HA(4, k[5]))))); }
static inline double horner7(double x, const double *k)
{ return HA(0, HA(1, HA(2, HA(3, HA(4, HA(5, k[6])))))); }

static inline double hornerf2(double x, const double *k) { return HF(0, k[1]); }
static inline double hornerf3(double x, const double *k) { return HF(0, HF(1, k[2])); }
static inline double hornerf4(double x, const double *k) { return HF(0, HF(1, HF(2, k[3]))); }
static inline double hornerf5(double x, const double *k) { return HF(0, HF(1, HF(2, HF(3, k[4])))); }
static inline double hornerf6(double x, const double *k)
{ return HF(0, HF(1, HF(2, HF(3, HF(4, k[5]))))); }
static inline double hornerf7(double x, const double *k)
{ return HF(0, HF(1, HF(2, HF(3, HF(4, HF(5, k[6])))))); }

/* Estrin: pair neighbours at x, square the power, repeat; an odd
   element out is carried up unchanged. */
#define ESTRIN_BODIES(NAME, P)                                          \
  static inline double NAME##2(double x, const double *k)               \
  { return P(k[0], k[1], x); }                                          \
  static inline double NAME##3(double x, const double *k)               \
  { double t0 = P(k[0], k[1], x); return P(t0, k[2], x * x); }          \
  static inline double NAME##4(double x, const double *k)               \
  {                                                                     \
    double t0 = P(k[0], k[1], x), t1 = P(k[2], k[3], x);                \
    return P(t0, t1, x * x);                                            \
  }                                                                     \
  static inline double NAME##5(double x, const double *k)               \
  {                                                                     \
    double t0 = P(k[0], k[1], x), t1 = P(k[2], k[3], x);                \
    double y = x * x;                                                   \
    double s = P(t0, t1, y);                                            \
    return P(s, k[4], y * y);                                           \
  }                                                                     \
  static inline double NAME##6(double x, const double *k)               \
  {                                                                     \
    double t0 = P(k[0], k[1], x), t1 = P(k[2], k[3], x);                \
    double t2 = P(k[4], k[5], x);                                       \
    double y = x * x;                                                   \
    double s = P(t0, t1, y);                                            \
    return P(s, t2, y * y);                                             \
  }                                                                     \
  static inline double NAME##7(double x, const double *k)               \
  {                                                                     \
    double t0 = P(k[0], k[1], x), t1 = P(k[2], k[3], x);                \
    double t2 = P(k[4], k[5], x);                                       \
    double y = x * x;                                                   \
    double s0 = P(t0, t1, y), s1 = P(t2, k[6], y);                      \
    return P(s0, s1, y * y);                                            \
  }

ESTRIN_BODIES(estrin, EA)
ESTRIN_BODIES(estrinf, EF)

/* Knuth's adapted forms, degrees 4-6 (polyeval.ml's knuth_expr). */
static inline double knuth5(double x, const double *a)
{
  double y = (x + a[0]) * x + a[1];
  return (((y + x) + a[2]) * y + a[3]) * a[4];
}

static inline double knuth6(double x, const double *a)
{
  double t = x + a[0];
  double y = t * t;
  double inner = (y + a[1]) * y + a[2];
  return (inner * (x + a[3]) + a[4]) * a[5];
}

static inline double knuth7(double x, const double *a)
{
  double z = (x + a[0]) * x + a[1];
  double w = (x + a[2]) * z + a[3];
  return (((w + z) + a[4]) * w + a[5]) * a[6];
}

/* vec: sweep (every case below is one loop) */
#define SWEEP(F)                                                        \
  for (intnat i = lo; i < hi; i++) dst[i] = F(src[i], k);               \
  return

/* dst[i] = the polynomial c[0 .. len-1] at src[i], for i in [lo, hi).
   [code] is a scheme code, [len] in 0..7 (Knuth: 5..7); the caller
   checks both.  Lengths 0 and 1 are the constants 0.0 and c[0]. */
RLIBM_CLONES
void rlibm_sweep(intnat code, intnat len, const double *c,
                 const double *src, double *dst, intnat lo, intnat hi)
{
  double k[8] = { 0.0 };
  memcpy(k, c, (size_t) len * sizeof(double));
  if (code != KNUTH && len <= 1) {
    for (intnat i = lo; i < hi; i++) dst[i] = k[0];
    return;
  }
  switch (code * 8 + len) {
  case HORNER * 8 + 2: SWEEP(horner2);
  case HORNER * 8 + 3: SWEEP(horner3);
  case HORNER * 8 + 4: SWEEP(horner4);
  case HORNER * 8 + 5: SWEEP(horner5);
  case HORNER * 8 + 6: SWEEP(horner6);
  case HORNER * 8 + 7: SWEEP(horner7);
  case HORNER_FMA * 8 + 2: SWEEP(hornerf2);
  case HORNER_FMA * 8 + 3: SWEEP(hornerf3);
  case HORNER_FMA * 8 + 4: SWEEP(hornerf4);
  case HORNER_FMA * 8 + 5: SWEEP(hornerf5);
  case HORNER_FMA * 8 + 6: SWEEP(hornerf6);
  case HORNER_FMA * 8 + 7: SWEEP(hornerf7);
  case ESTRIN * 8 + 2: SWEEP(estrin2);
  case ESTRIN * 8 + 3: SWEEP(estrin3);
  case ESTRIN * 8 + 4: SWEEP(estrin4);
  case ESTRIN * 8 + 5: SWEEP(estrin5);
  case ESTRIN * 8 + 6: SWEEP(estrin6);
  case ESTRIN * 8 + 7: SWEEP(estrin7);
  case ESTRIN_FMA * 8 + 2: SWEEP(estrinf2);
  case ESTRIN_FMA * 8 + 3: SWEEP(estrinf3);
  case ESTRIN_FMA * 8 + 4: SWEEP(estrinf4);
  case ESTRIN_FMA * 8 + 5: SWEEP(estrinf5);
  case ESTRIN_FMA * 8 + 6: SWEEP(estrinf6);
  case ESTRIN_FMA * 8 + 7: SWEEP(estrinf7);
  case KNUTH * 8 + 5: SWEEP(knuth5);
  case KNUTH * 8 + 6: SWEEP(knuth6);
  case KNUTH * 8 + 7: SWEEP(knuth7);
  default: return;
  }
}

/* Polyeval.sweep: [scheme] is a constant constructor, its index the
   scheme code; [data] is a float array (flat doubles), [src] and [dst]
   floatarrays; neither allocates nor raises.  Built with
   -DRLIBM_SANITIZE (the dune `sanitize` profile), it first checks the
   window against both blocks' sizes and aborts outside them: ASan sees
   no overrun of a small pooled OCaml block. */
value rlibm_poly_sweep(value scheme, value data, value src, value dst,
                       intnat lo, intnat hi)
{
#ifdef RLIBM_SANITIZE
  if (lo < hi && ((uintnat) hi > Wosize_val(src) / Double_wosize
                  || (uintnat) hi > Wosize_val(dst) / Double_wosize
                  || Wosize_val(data) / Double_wosize > 8)) {
    fprintf(stderr, "polyeval_stubs.c: window [%ld, %ld) or %lu coefficients"
            " outside a block\n", (long) lo, (long) hi,
            (unsigned long) (Wosize_val(data) / Double_wosize));
    abort();
  }
#endif
  rlibm_sweep(Long_val(scheme), (intnat) (Wosize_val(data) / Double_wosize),
              (const double *) data, (const double *) src, (double *) dst,
              lo, hi);
  return Val_unit;
}

value rlibm_poly_sweep_byte(value *argv, int argn)
{
  (void) argn;
  return rlibm_poly_sweep(argv[0], argv[1], argv[2], argv[3],
                          Long_val(argv[4]), Long_val(argv[5]));
}
