/* Dimension-4 kernels for GRAPE's hot loop: the 4x4 complex product, the
   scaling-and-squaring Taylor exponential of a 4x4 generator, and the
   forward and backward passes of one dim-4 GRAPE iteration; and, for
   every dimension, the ADAM step and drive clip that end the iteration.

   Matrices are held as separate real and imaginary arrays (the split
   layout), so the compiler can compute an output row's four columns as
   one vector.  pqc_mul4 and pqc_expm4 take Cmat's interleaved row-major
   layout and convert; the two passes keep a whole run's slice propagators
   and prefix products split, in buffers Grape allocates once per run.
   Every element follows the float chain of the OCaml code operation for
   operation: a 0.0 seed, ascending k, the (c * re) - (0.0 * im) scalar
   terms, the one-norm/ldexp scaling and the squaring count of Expm, the
   generator, overlap, trace and gradient chains of Grape.optimize, and
   Adam.step's moment and update chains.  The results are therefore
   bit-identical to them.  That holds only when the build passes
   -ffp-contract=off: a fused multiply-add rounds once where the OCaml code
   rounds twice.  The build also passes -fno-math-errno, so the compiler
   may use the square-root instruction in vector form; nothing here reads
   errno, and sqrt rounds correctly either way.

   The two passes leave out work that cannot change a bit.  The forward
   pass exponentiates eight steps at a time, one per vector lane (four
   once at most four remain), and when every generator of the batch has
   real parts that are zeros of either sign and a finite one-norm, it runs
   expm4's Taylor chain as one real 4x4 product per term ("Step lanes").
   When every control is real with finite entries and W is finite, the
   backward pass sums each trace over the control's nonzero entries only.
   Both rest on one fact: each sum starts from +0.0 and never becomes
   -0.0, so a left-out term that is a zero of either sign changes nothing,
   and the finiteness conditions make every left-out term such a zero,
   never inf * 0 = NaN.  Otherwise each runs the full complex chain.

   With GCC on x86-64 ELF and glibc, the entry points are cloned for
   AVX-512F, AVX2 and the baseline ISA, and the loader picks one from
   CPUID.  The *_default and *_avx2 entries (see "Entry points") compile
   the same bodies for one ISA each, so tests exercise every clone on any
   host that can run it. */

#include <math.h>
#define CAML_NAME_SPACE
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

/* Clones need an ifunc-capable loader: glibc has one, musl does not. */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) \
    && defined(__ELF__) && defined(__GLIBC__)
#define PQC_X86_CLONES 1
#define PQC_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define PQC_X86_CLONES 0
#define PQC_CLONES
#endif

#define INLINE static inline __attribute__((always_inline))

/* Entry (i, j) at index 4 * i + j of each part. */
typedef struct {
  double re[16];
  double im[16];
} m4;

INLINE void load(m4 *m, const double *x) {
  for (int p = 0; p < 16; p++) {
    m->re[p] = x[2 * p];
    m->im[p] = x[(2 * p) + 1];
  }
}

INLINE void store(double *x, const m4 *m) {
  for (int p = 0; p < 16; p++) {
    x[2 * p] = m->re[p];
    x[(2 * p) + 1] = m->im[p];
  }
}

/* Row i of a * b: each element sums ascending k from a 0.0 seed.  The sums
   build in locals and are stored once, so they stay in registers instead
   of going through pr and pi, which may point into a or b. */
INLINE void mul_row(double pr[4], double pi[4], const m4 *a, const m4 *b,
                    int i) {
  double sr[4], si[4];
  for (int j = 0; j < 4; j++) {
    sr[j] = 0.0;
    si[j] = 0.0;
  }
  for (int k = 0; k < 4; k++) {
    double ar = a->re[(4 * i) + k], ai = a->im[(4 * i) + k];
    for (int j = 0; j < 4; j++) {
      sr[j] = sr[j] + ((ar * b->re[(4 * k) + j]) - (ai * b->im[(4 * k) + j]));
      si[j] = si[j] + ((ar * b->im[(4 * k) + j]) + (ai * b->re[(4 * k) + j]));
    }
  }
  for (int j = 0; j < 4; j++) {
    pr[j] = sr[j];
    pi[j] = si[j];
  }
}

/* d = a * b; d must not alias a or b (a and b may be the same matrix). */
INLINE void mul(m4 *restrict d, const m4 *a, const m4 *b) {
  for (int i = 0; i < 4; i++) mul_row(&d->re[4 * i], &d->im[4 * i], a, b, i);
}

INLINE void identity(m4 *m) {
  for (int p = 0; p < 16; p++) {
    m->re[p] = p % 5 == 0 ? 1.0 : 0.0;
    m->im[p] = 0.0;
  }
}

/* Expm's squaring count for a one-norm.  A non-finite ceiling (an infinite
   norm) scales by 2^0, as in Expm. */
INLINE int scaling_exponent(double norm) {
  int s = 0;
  if (!(norm <= 0.5)) {
    double c = ceil(log(norm / 0.5) / log(2.0));
    if (isfinite(c)) s = (int)c;
  }
  return s;
}

/* out = exp(x); out may alias x. */
INLINE void expm4(m4 *out, const m4 *x) {
  m4 a, term, acc, sq;
  /* Cmat.one_norm: column sums over ascending rows, then the first strict
     maximum (a NaN column never wins). */
  double col[4], norm = 0.0;
  for (int j = 0; j < 4; j++) col[j] = 0.0;
  for (int i = 0; i < 4; i++)
    for (int j = 0; j < 4; j++) {
      double re = x->re[(4 * i) + j], im = x->im[(4 * i) + j];
      col[j] = col[j] + sqrt((re * re) + (im * im));
    }
  for (int j = 0; j < 4; j++)
    if (col[j] > norm) norm = col[j];
  int s = scaling_exponent(norm);
  double inv = ldexp(1.0, -s);
  for (int p = 0; p < 16; p++) {
    double re = x->re[p], im = x->im[p];
    a.re[p] = (inv * re) - (0.0 * im);
    a.im[p] = (inv * im) + (0.0 * re);
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
        int p = (4 * i) + j;
        double tr = (c * pr[j]) - (0.0 * pi[j]);
        double ti = (c * pi[j]) + (0.0 * pr[j]);
        term.re[p] = tr;
        term.im[p] = ti;
        acc.re[p] = acc.re[p] + ((1.0 * tr) - (0.0 * ti));
        acc.im[p] = acc.im[p] + ((1.0 * ti) + (0.0 * tr));
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
  *out = *src;
}

INLINE void mul4(double *out, const double *x, const double *y) {
  m4 a, b, d;
  load(&a, x);
  load(&b, y);
  mul(&d, &a, &b);
  store(out, &d);
}

INLINE void expm4_interleaved(double *out, const double *x) {
  m4 a;
  load(&a, x);
  expm4(&a, &a);
  store(out, &a);
}

/* --- One dim-4 GRAPE iteration ---

   A run's fixed matrices arrive as one array of split matrices: the
   embedded target, the drift, then the nc control Hamiltonians.  The
   controls u.(j).(k) and the gradient grad.(j).(k) are OCaml float
   arrays, read and written in place; the externals are noalloc, so
   nothing moves them during a call. */

enum { TARGET = 0, DRIFT = 1, CONTROLS = 2 };

#define U(v, j, k) Double_flat_field(Field((v), (j)), (k))

/* gen = -i dt (drift + sum_j u.(j).(k) H_j).  Per element: the drift
   value, then the controls in ascending j, then the scale by (0, -dt). */
INLINE void generator(m4 *gen, const m4 *sys, long nc, value u, long k,
                      double neg_dt) {
  double hr[16], hi[16];
  for (int p = 0; p < 16; p++) {
    hr[p] = sys[DRIFT].re[p];
    hi[p] = sys[DRIFT].im[p];
  }
  for (long j = 0; j < nc; j++) {
    double zr = U(u, j, k);
    const m4 *h = &sys[CONTROLS + j];
    for (int p = 0; p < 16; p++) {
      double re = h->re[p], im = h->im[p];
      hr[p] = hr[p] + ((zr * re) - (0.0 * im));
      hi[p] = hi[p] + ((zr * im) + (0.0 * re));
    }
  }
  for (int p = 0; p < 16; p++) {
    gen->re[p] = (0.0 * hr[p]) - (neg_dt * hi[p]);
    gen->im[p] = (0.0 * hi[p]) + (neg_dt * hr[p]);
  }
}

/* --- Step lanes ---

   The forward pass exponentiates up to LANES steps at once.  In a lane
   array x[p][l], lane l holds entry p of step k0 + l, so each operation
   of the float chain is one vector operation across steps.  A dependent
   chain of 4x4 products on one matrix leaves most of the vector unit
   idle; independent steps side by side fill it. */

enum { LANES = 8 };

/* Taylor term k of the real chain below, in every lane: t <- c (t b)
   and acc += t.  The product sums ascending q from 0.0, adding t b when
   k is odd and subtracting it when k is even. */
INLINE void taylor_lanes(double t[16][LANES], double b[16][LANES],
                         double acc[16][LANES], double c, int odd, int w) {
  for (int i = 0; i < 4; i++) {
    double s[4][LANES];
    for (int j = 0; j < 4; j++)
      for (int l = 0; l < w; l++) s[j][l] = 0.0;
    for (int q = 0; q < 4; q++)
      for (int j = 0; j < 4; j++)
        for (int l = 0; l < w; l++) {
          double x = t[(4 * i) + q][l] * b[(4 * q) + j][l];
          s[j][l] = odd ? s[j][l] + x : s[j][l] - x;
        }
    /* Row i of the product reads only row i of t. */
    for (int j = 0; j < 4; j++)
      for (int l = 0; l < w; l++) {
        double x = c * s[j][l];
        t[(4 * i) + j][l] = x;
        acc[(4 * i) + j][l] = acc[(4 * i) + j][l] + x;
      }
  }
}

/* Slices k0 .. k0 + w - 1 (those below n_steps), lane l holding step
   k0 + l and lanes past the last step repeating it.

   The generators are built in lanes with generator()'s chain.  When every
   real part is a zero of either sign and every column sum of the one-norm
   is finite, the batch takes the real chain: with x = i B, B real, the
   Taylor terms of expm4 alternate real (k even) and imaginary (k odd),
   the other part an exact zero, so each term is one real 4x4 product.
   Every sum in expm4 starts from +0.0 and a partial sum is never -0.0,
   so the zero products that the real chain leaves out would add a zero,
   of either sign, to a nonzero value or to +0.0, which changes nothing;
   a finite one-norm keeps every term and every B finite, so none of them
   would be inf * 0.  An odd term's imaginary part is 0.0 + sum (t b); an
   even term's real part is 0.0 - sum (t b), the product of two imaginary
   parts; acc's real part collects the even terms and its imaginary part
   the odd ones.  The squarings are complex products, lane l squaring
   s(l) times.  Every element thus gets the bits expm4 gives it.
   Otherwise, as when a control or the drift is not finite or not real,
   the batch runs generator() and expm4() step by step. */
INLINE void slice_lanes(const m4 *sys, long nc, long n_steps, double neg_dt,
                        value u, m4 *slices, long k0, int w) {
  long count = n_steps - k0 < w ? n_steps - k0 : w;
  double gr[16][LANES], gi[16][LANES];
  for (int p = 0; p < 16; p++)
    for (int l = 0; l < w; l++) {
      gr[p][l] = sys[DRIFT].re[p];
      gi[p][l] = sys[DRIFT].im[p];
    }
  for (long j = 0; j < nc; j++) {
    const double *row = (const double *)Field(u, j);
    double z[LANES];
    for (int l = 0; l < w; l++) z[l] = row[l < count ? k0 + l : n_steps - 1];
    const m4 *h = &sys[CONTROLS + j];
    for (int p = 0; p < 16; p++) {
      double re = h->re[p], im = h->im[p];
      for (int l = 0; l < w; l++) {
        gr[p][l] = gr[p][l] + ((z[l] * re) - (0.0 * im));
        gi[p][l] = gi[p][l] + ((z[l] * im) + (0.0 * re));
      }
    }
  }
  int real = 1;
  for (int p = 0; p < 16; p++)
    for (int l = 0; l < w; l++) {
      double hr = gr[p][l], hi = gi[p][l];
      gr[p][l] = (0.0 * hr) - (neg_dt * hi);
      gi[p][l] = (0.0 * hi) + (neg_dt * hr);
      real &= gr[p][l] == 0.0;
    }
  /* expm4's one-norm, lane by lane. */
  double norm[LANES];
  for (int l = 0; l < w; l++) norm[l] = 0.0;
  for (int j = 0; j < 4; j++) {
    double col[LANES];
    for (int l = 0; l < w; l++) col[l] = 0.0;
    for (int i = 0; i < 4; i++)
      for (int l = 0; l < w; l++) {
        double re = gr[(4 * i) + j][l], im = gi[(4 * i) + j][l];
        col[l] = col[l] + sqrt((re * re) + (im * im));
      }
    for (int l = 0; l < w; l++) {
      real &= isfinite(col[l]);
      norm[l] = col[l] > norm[l] ? col[l] : norm[l];
    }
  }
  if (!real) {
    for (long k = k0; k < k0 + count; k++) {
      m4 gen;
      generator(&gen, sys, nc, u, k, neg_dt);
      expm4(&slices[k], &gen);
    }
    return;
  }
  long s[LANES], smax = 0;
  double b[16][LANES], inv[LANES];
  for (int l = 0; l < w; l++) {
    s[l] = scaling_exponent(norm[l]);
    inv[l] = ldexp(1.0, (int)-s[l]);
    if (s[l] > smax) smax = s[l];
  }
  /* The imaginary part of expm4's scaled matrix. */
  for (int p = 0; p < 16; p++)
    for (int l = 0; l < w; l++)
      b[p][l] = (inv[l] * gi[p][l]) + (0.0 * gr[p][l]);
  double t[16][LANES], ar[16][LANES], ai[16][LANES];
  for (int p = 0; p < 16; p++)
    for (int l = 0; l < w; l++) {
      t[p][l] = p % 5 == 0 ? 1.0 : 0.0;
      ar[p][l] = t[p][l];
      ai[p][l] = 0.0;
    }
  for (int k = 1; k <= 13; k++) {
    if (k % 2 == 1)
      taylor_lanes(t, b, ai, 1.0 / (double)k, 1, w);
    else
      taylor_lanes(t, b, ar, 1.0 / (double)k, 0, w);
  }
  /* Squarings: mul()'s chain in every lane, kept where r < s(l). */
  for (long r = 0; r < smax; r++) {
    double qr[16][LANES], qi[16][LANES];
    for (int i = 0; i < 4; i++)
      for (int j = 0; j < 4; j++) {
        double sr[LANES], si[LANES];
        for (int l = 0; l < w; l++) {
          sr[l] = 0.0;
          si[l] = 0.0;
        }
        for (int q = 0; q < 4; q++)
          for (int l = 0; l < w; l++) {
            double xr = ar[(4 * i) + q][l], xi = ai[(4 * i) + q][l];
            double yr = ar[(4 * q) + j][l], yi = ai[(4 * q) + j][l];
            sr[l] = sr[l] + ((xr * yr) - (xi * yi));
            si[l] = si[l] + ((xr * yi) + (xi * yr));
          }
        for (int l = 0; l < w; l++) {
          qr[(4 * i) + j][l] = sr[l];
          qi[(4 * i) + j][l] = si[l];
        }
      }
    for (int p = 0; p < 16; p++)
      for (int l = 0; l < w; l++) {
        ar[p][l] = r < s[l] ? qr[p][l] : ar[p][l];
        ai[p][l] = r < s[l] ? qi[p][l] : ai[p][l];
      }
  }
  for (long l = 0; l < count; l++)
    for (int p = 0; p < 16; p++) {
      slices[k0 + l].re[p] = ar[p][l];
      slices[k0 + l].im[p] = ai[p][l];
    }
}

/* Forward pass.  Builds and exponentiates every step's generator in lane
   batches (half width once at most 4 steps remain), forms the prefix
   products P_k = U_k P_{k-1}, and writes the overlap Cmat.inner target
   P_{N-1} to ov.(0), ov.(1). */
INLINE void forward(const m4 *sys, long nc, long n_steps, double neg_dt,
                    value u, m4 *slices, m4 *prefix, value ov) {
  for (long k0 = 0; k0 < n_steps; k0 += LANES) {
    if (n_steps - k0 > LANES / 2)
      slice_lanes(sys, nc, n_steps, neg_dt, u, slices, k0, LANES);
    else
      slice_lanes(sys, nc, n_steps, neg_dt, u, slices, k0, LANES / 2);
  }
  prefix[0] = slices[0];
  for (long k = 1; k < n_steps; k++)
    mul(&prefix[k], &slices[k], &prefix[k - 1]);
  /* conj(target) * P over the flat row-major order, from 0.0. */
  const m4 *t = &sys[TARGET], *pn = &prefix[n_steps - 1];
  double re = 0.0, im = 0.0;
  for (int p = 0; p < 16; p++) {
    re = re + ((t->re[p] * pn->re[p]) + (t->im[p] * pn->im[p]));
    im = im + ((t->re[p] * pn->im[p]) - (t->im[p] * pn->re[p]));
  }
  Store_double_flat_field(ov, 0, re);
  Store_double_flat_field(ov, 1, im);
}

/* Controls whose traces the backward pass sums sparsely: a 4x4 Hermitian
   basis has 16 elements, so a longer list repeats a direction. */
enum { SPARSE_CONTROLS = 16 };

/* Backward pass.  Starts from M = T^dagger; for k = N-1 down to 0 it forms
   W = P_k M, every trace Tr(W H_j), the gradient entry
   -dF + ((2 lambda) u) / (a_max a_max) into grad.(j).(k), and then
   M <- M U_k.  [ov] holds the forward pass's overlap.

   Sparse real traces: when every control has zero imaginary parts and
   finite real parts, and W is finite, Tr(W H_j) sums only over H_j's
   nonzero entries, in the dense sum's (i, jj) order, one real product
   per part.  A left-out term is (a * 0) - (b * 0) or a zero times a
   finite number, a zero of either sign, and adding a zero to the sum,
   which starts from +0.0 and is never -0.0, changes nothing; with W or a
   control not finite, a left-out term could be inf * 0 = NaN, so the
   dense sum runs. */
INLINE void backward(const m4 *sys, long nc, long n_steps, double neg_dt,
                     const m4 *slices, const m4 *prefix, value ov,
                     double dsub2, double amp_penalty, value max_amp,
                     value u, value grad) {
  m4 m, w, next;
  const m4 *t = &sys[TARGET];
  /* Per control, the W index (4 i) + jj and the value of each nonzero
     entry H_j(jj, i), in (i, jj) order. */
  unsigned char nz_at[SPARSE_CONTROLS][16];
  double nz_val[SPARSE_CONTROLS][16];
  int nz_len[SPARSE_CONTROLS];
  int sparse = nc <= SPARSE_CONTROLS;
  for (long j = 0; sparse && j < nc; j++) {
    const m4 *h = &sys[CONTROLS + j];
    nz_len[j] = 0;
    for (int i = 0; i < 4; i++)
      for (int jj = 0; jj < 4; jj++) {
        double bre = h->re[(4 * jj) + i], bim = h->im[(4 * jj) + i];
        sparse &= bim == 0.0 && isfinite(bre);
        if (bre != 0.0) {
          nz_at[j][nz_len[j]] = (unsigned char)((4 * i) + jj);
          nz_val[j][nz_len[j]] = bre;
          nz_len[j]++;
        }
      }
  }
  for (int i = 0; i < 4; i++)
    for (int j = 0; j < 4; j++) {
      m.re[(4 * i) + j] = t->re[(4 * j) + i];
      m.im[(4 * i) + j] = -t->im[(4 * j) + i];
    }
  double ov_re = Double_flat_field(ov, 0), ov_im = -Double_flat_field(ov, 1);
  double scale = 2.0 / dsub2, amp2 = 2.0 * amp_penalty;
  for (long k = n_steps - 1; k >= 0; k--) {
    mul(&w, &prefix[k], &m);
    int finite = 1;
    for (int p = 0; p < 16; p++) finite &= isfinite(w.re[p]) & isfinite(w.im[p]);
    for (long j = 0; j < nc; j++) {
      const m4 *h = &sys[CONTROLS + j];
      /* Cmat.trace_of_product order: (i, jj) ascending from 0.0. */
      double s_re = 0.0, s_im = 0.0;
      if (sparse && finite)
        for (int e = 0; e < nz_len[j]; e++) {
          int q = nz_at[j][e];
          s_re = s_re + (w.re[q] * nz_val[j][e]);
          s_im = s_im + (w.im[q] * nz_val[j][e]);
        }
      else
        for (int i = 0; i < 4; i++)
          for (int jj = 0; jj < 4; jj++) {
            double are = w.re[(4 * i) + jj], aim = w.im[(4 * i) + jj];
            double bre = h->re[(4 * jj) + i], bim = h->im[(4 * jj) + i];
            s_re = s_re + ((are * bre) - (aim * bim));
            s_im = s_im + ((are * bim) + (aim * bre));
          }
      double d_o_re = (0.0 * s_re) - (neg_dt * s_im);
      double d_o_im = (0.0 * s_im) + (neg_dt * s_re);
      double d_fid = scale * ((ov_re * d_o_re) - (ov_im * d_o_im));
      double a = Double_flat_field(max_amp, j);
      double amp = (amp2 * U(u, j, k)) / (a * a);
      Store_double_flat_field(Field(grad, j), k, -d_fid + amp);
    }
    if (k > 0) {
      mul(&next, &m, &slices[k]);
      m = next;
    }
  }
}

/* --- One ADAM step and the drive clip, for every dimension ---

   Adam.step on the controls u.(j).(k), flattened j-major, then the clip
   Float.max (-a_max) (Float.min a_max x) of Grape.optimize.  The moments
   m and v are OCaml float arrays of nc * n_steps entries, entry
   (j * n_steps) + k for control j at step k. */

/* Adam's constants: beta1, beta2 and epsilon. */
#define BETA1 0.9
#define BETA2 0.999
#define EPSILON 1e-8

/* Float.max lo (Float.min cap x), with the stdlib's NaN and signed-zero
   rules. */
INLINE double clip(double x, double cap, double lo) {
  double mn = (x > cap || (!signbit(x) && signbit(cap))) ? (isnan(x) ? x : cap)
              : isnan(cap)                               ? cap
                                                         : x;
  return (mn > lo || (!signbit(mn) && signbit(lo))) ? (isnan(lo) ? lo : mn)
         : isnan(mn)                                ? mn
                                                    : lo;
}

/* Adam.step's chain for one control's row, then the clip.  The clip's
   branches would keep the compiler from vectorizing the update (and its
   divisions and square root), so it runs as a second loop. */
INLINE void adam_row(double *restrict x, double *restrict m,
                     double *restrict v, const double *restrict g, long n,
                     double lr, double bias1, double bias2, double cap) {
  for (long k = 0; k < n; k++) {
    double mk = (BETA1 * m[k]) + ((1.0 - BETA1) * g[k]);
    double vk = (BETA2 * v[k]) + (((1.0 - BETA2) * g[k]) * g[k]);
    m[k] = mk;
    v[k] = vk;
    double m_hat = mk / bias1, v_hat = vk / bias2;
    x[k] = x[k] - ((lr * m_hat) / (sqrt(v_hat) + EPSILON));
  }
  for (long k = 0; k < n; k++) x[k] = clip(x[k], cap, -cap);
}

/* Step t (from 1) at learning rate lr.  Every gradient entry is checked
   before anything is written: a non-finite one returns 1 (diverged) and
   leaves u, m and v as they were.  The bias terms call pow, the function
   OCaml's ( ** ) calls. */
INLINE int adam_step(long nc, long n_steps, long t, double lr, value max_amp,
                     value u, value grad, value m, value v) {
  for (long j = 0; j < nc; j++) {
    const double *g = (const double *)Field(grad, j);
    for (long k = 0; k < n_steps; k++)
      if (!isfinite(g[k])) return 1;
  }
  double bias1 = 1.0 - pow(BETA1, (double)t);
  double bias2 = 1.0 - pow(BETA2, (double)t);
  for (long j = 0; j < nc; j++)
    adam_row((double *)Field(u, j), (double *)m + (j * n_steps),
             (double *)v + (j * n_steps), (const double *)Field(grad, j),
             n_steps, lr, bias1, bias2, Double_flat_field(max_amp, j));
  return 0;
}

/* --- Entry points ---

   Each body has three entries: NAME, the loader's clone; NAME_default,
   the baseline ISA; and NAME_avx2, the AVX2 build when the CPU has AVX2
   and the baseline body otherwise.  The loader picks AVX-512 on hosts
   that have it, so without NAME_avx2 the AVX2 body would never run under
   test there, nor the baseline body without NAME_default. */

#if PQC_X86_CLONES
#define PQC_AVX2 __attribute__((target("avx2")))
#define HAS_AVX2() __builtin_cpu_supports("avx2")
#else
#define PQC_AVX2
#define HAS_AVX2() 0
#endif

#define ENTRIES(name, body, params, args)                                  \
  PQC_CLONES CAMLprim value name params { return body args; }             \
  CAMLprim value name##_default params { return body args; }              \
  PQC_AVX2 static value name##_avx2_only params { return body args; }     \
  CAMLprim value name##_avx2 params {                                      \
    return HAS_AVX2() ? name##_avx2_only args : name##_default args;       \
  }

/* Bytecode stubs, for the entries that take more than five arguments. */
#define BYTE_ENTRIES(name, argv_args)                                      \
  CAMLprim value name##_byte(value *argv, int argn) {                      \
    (void)argn;                                                            \
    return name argv_args;                                                 \
  }                                                                        \
  CAMLprim value name##_default_byte(value *argv, int argn) {              \
    (void)argn;                                                            \
    return name##_default argv_args;                                       \
  }                                                                        \
  CAMLprim value name##_avx2_byte(value *argv, int argn) {                 \
    (void)argn;                                                            \
    return name##_avx2 argv_args;                                          \
  }

#define DATA(v) ((double *)Caml_ba_data_val(v))
#define M4(v) ((m4 *)Caml_ba_data_val(v))

INLINE value mul4_stub(value a, value b, value dst) {
  mul4(DATA(dst), DATA(a), DATA(b));
  return Val_unit;
}

INLINE value expm4_stub(value a, value dst) {
  expm4_interleaved(DATA(dst), DATA(a));
  return Val_unit;
}

INLINE value forward_stub(value sys, value nc, value n_steps, double neg_dt,
                          value u, value slices, value prefix, value ov) {
  forward(M4(sys), Long_val(nc), Long_val(n_steps), neg_dt, u, M4(slices),
          M4(prefix), ov);
  return Val_unit;
}

INLINE value backward_stub(value sys, value nc, value n_steps, double neg_dt,
                           value slices, value prefix, value ov, double dsub2,
                           double amp_penalty, value max_amp, value u,
                           value grad) {
  backward(M4(sys), Long_val(nc), Long_val(n_steps), neg_dt, M4(slices),
           M4(prefix), ov, dsub2, amp_penalty, max_amp, u, grad);
  return Val_unit;
}

INLINE value adam_stub(value nc, value n_steps, value t, double lr,
                       value max_amp, value u, value grad, value m, value v) {
  return Val_bool(adam_step(Long_val(nc), Long_val(n_steps), Long_val(t), lr,
                            max_amp, u, grad, m, v));
}

ENTRIES(pqc_mul4, mul4_stub, (value a, value b, value dst), (a, b, dst))

ENTRIES(pqc_expm4, expm4_stub, (value a, value dst), (a, dst))

ENTRIES(pqc_grape4_forward, forward_stub,
        (value sys, value nc, value n_steps, double neg_dt, value u,
         value slices, value prefix, value ov),
        (sys, nc, n_steps, neg_dt, u, slices, prefix, ov))
BYTE_ENTRIES(pqc_grape4_forward,
             (argv[0], argv[1], argv[2], Double_val(argv[3]), argv[4],
              argv[5], argv[6], argv[7]))

ENTRIES(pqc_grape4_backward, backward_stub,
        (value sys, value nc, value n_steps, double neg_dt, value slices,
         value prefix, value ov, double dsub2, double amp_penalty,
         value max_amp, value u, value grad),
        (sys, nc, n_steps, neg_dt, slices, prefix, ov, dsub2, amp_penalty,
         max_amp, u, grad))
BYTE_ENTRIES(pqc_grape4_backward,
             (argv[0], argv[1], argv[2], Double_val(argv[3]), argv[4],
              argv[5], argv[6], Double_val(argv[7]), Double_val(argv[8]),
              argv[9], argv[10], argv[11]))

ENTRIES(pqc_adam_step, adam_stub,
        (value nc, value n_steps, value t, double lr, value max_amp, value u,
         value grad, value m, value v),
        (nc, n_steps, t, lr, max_amp, u, grad, m, v))
BYTE_ENTRIES(pqc_adam_step,
             (argv[0], argv[1], argv[2], Double_val(argv[3]), argv[4],
              argv[5], argv[6], argv[7], argv[8]))
