/* Dimension-4 kernels for GRAPE's hot loop: the 4x4 complex product and
   the scaling-and-squaring Taylor exponential of a 4x4 generator.

   Matrices arrive in Cmat's interleaved row-major layout and are split
   into separate real and imaginary arrays, so the compiler can compute
   an output row's four columns as one vector.  Every element still
   follows the float chain of the generic OCaml kernels operation for
   operation: a 0.0 seed, ascending k, the (c * re) - (0.0 * im) scalar
   terms, the one-norm/ldexp scaling and the squaring count.  The results
   are therefore bit-identical to them.  That holds only when the build
   passes -ffp-contract=off: a fused multiply-add rounds once where the
   OCaml code rounds twice.

   With GCC on x86-64 ELF and glibc, the entry points are cloned for AVX2
   and the baseline ISA, and the loader picks one from CPUID.  The
   *_default entries compile the same bodies for the baseline ISA alone,
   so tests exercise that clone on AVX2 hosts too. */

#include <math.h>
#define CAML_NAME_SPACE
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

/* Clones need an ifunc-capable loader: glibc has one, musl does not. */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) \
    && defined(__ELF__) && defined(__GLIBC__)
#define PQC_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define PQC_CLONES
#endif

#define INLINE static inline __attribute__((always_inline))

typedef struct {
  double re[4][4];
  double im[4][4];
} m4;

INLINE void load(m4 *m, const double *x) {
  for (int i = 0; i < 4; i++)
    for (int j = 0; j < 4; j++) {
      m->re[i][j] = x[(8 * i) + (2 * j)];
      m->im[i][j] = x[(8 * i) + (2 * j) + 1];
    }
}

INLINE void store(double *x, const m4 *m) {
  for (int i = 0; i < 4; i++)
    for (int j = 0; j < 4; j++) {
      x[(8 * i) + (2 * j)] = m->re[i][j];
      x[(8 * i) + (2 * j) + 1] = m->im[i][j];
    }
}

/* Row i of a * b: each element sums ascending k from a 0.0 seed. */
INLINE void mul_row(double pr[4], double pi[4], const m4 *a, const m4 *b,
                    int i) {
  for (int j = 0; j < 4; j++) {
    pr[j] = 0.0;
    pi[j] = 0.0;
  }
  for (int k = 0; k < 4; k++) {
    double ar = a->re[i][k], ai = a->im[i][k];
    for (int j = 0; j < 4; j++) {
      pr[j] = pr[j] + ((ar * b->re[k][j]) - (ai * b->im[k][j]));
      pi[j] = pi[j] + ((ar * b->im[k][j]) + (ai * b->re[k][j]));
    }
  }
}

/* d = a * b; d must not alias a or b. */
INLINE void mul(m4 *d, const m4 *a, const m4 *b) {
  for (int i = 0; i < 4; i++) mul_row(d->re[i], d->im[i], a, b, i);
}

INLINE void identity(m4 *m) {
  for (int i = 0; i < 4; i++)
    for (int j = 0; j < 4; j++) {
      m->re[i][j] = i == j ? 1.0 : 0.0;
      m->im[i][j] = 0.0;
    }
}

INLINE void mul4(double *out, const double *x, const double *y) {
  m4 a, b, d;
  load(&a, x);
  load(&b, y);
  mul(&d, &a, &b);
  store(out, &d);
}

INLINE void expm4(double *out, const double *x) {
  m4 a, term, acc, sq;
  load(&a, x);
  /* Cmat.one_norm: column sums over ascending rows, then the first strict
     maximum (a NaN column never wins). */
  double col[4], norm = 0.0;
  for (int j = 0; j < 4; j++) col[j] = 0.0;
  for (int i = 0; i < 4; i++)
    for (int j = 0; j < 4; j++)
      col[j] = col[j] + sqrt((a.re[i][j] * a.re[i][j])
                             + (a.im[i][j] * a.im[i][j]));
  for (int j = 0; j < 4; j++)
    if (col[j] > norm) norm = col[j];
  /* A non-finite ceiling (an infinite norm) scales by 2^0, as in Expm. */
  int s = 0;
  if (!(norm <= 0.5)) {
    double c = ceil(log(norm / 0.5) / log(2.0));
    if (isfinite(c)) s = (int)c;
  }
  double inv = ldexp(1.0, -s);
  for (int i = 0; i < 4; i++)
    for (int j = 0; j < 4; j++) {
      double re = a.re[i][j], im = a.im[i][j];
      a.re[i][j] = (inv * re) - (0.0 * im);
      a.im[i][j] = (inv * im) + (0.0 * re);
    }
  /* Taylor: term = term * a / k and acc += term, order 13.  Row i of the
     product reads only row i of term, so term is updated in place. */
  identity(&term);
  identity(&acc);
  for (int k = 1; k <= 13; k++) {
    double c = 1.0 / (double)k;
    for (int i = 0; i < 4; i++) {
      double pr[4], pi[4];
      mul_row(pr, pi, &term, &a, i);
      for (int j = 0; j < 4; j++) {
        double tr = (c * pr[j]) - (0.0 * pi[j]);
        double ti = (c * pi[j]) + (0.0 * pr[j]);
        term.re[i][j] = tr;
        term.im[i][j] = ti;
        acc.re[i][j] = acc.re[i][j] + ((1.0 * tr) - (0.0 * ti));
        acc.im[i][j] = acc.im[i][j] + ((1.0 * ti) + (0.0 * tr));
      }
    }
  }
  /* Undo the scaling: square s times, ping-ponging between two buffers. */
  m4 *src = &acc, *tmp = &sq;
  for (int r = 0; r < s; r++) {
    mul(tmp, src, src);
    m4 *t = src;
    src = tmp;
    tmp = t;
  }
  store(out, src);
}

#define DATA(v) ((double *)Caml_ba_data_val(v))

PQC_CLONES CAMLprim value pqc_mul4(value a, value b, value dst) {
  mul4(DATA(dst), DATA(a), DATA(b));
  return Val_unit;
}

PQC_CLONES CAMLprim value pqc_expm4(value a, value dst) {
  expm4(DATA(dst), DATA(a));
  return Val_unit;
}

CAMLprim value pqc_mul4_default(value a, value b, value dst) {
  mul4(DATA(dst), DATA(a), DATA(b));
  return Val_unit;
}

CAMLprim value pqc_expm4_default(value a, value dst) {
  expm4(DATA(dst), DATA(a));
  return Val_unit;
}
