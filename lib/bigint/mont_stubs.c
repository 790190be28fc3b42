/* Montgomery kernels for Bigint.Mont, and small-prime residues.

   Operands are OCaml int arrays of 31-bit limbs (little-endian). The
   kernels pack residues below an odd modulus m into
   n = ceil(bits(m) / 64) 64-bit words, run fused multiply-reduce and
   square-reduce steps over unsigned __int128 products with
   R = 2^(64n), and unpack results into a destination array's limbs.
   Nothing is allocated on the OCaml heap (a call takes a few n words
   of C stack) and no pointer into an OCaml block outlives a call, so
   every entry point is [@@noalloc] and safe to run on several domains
   at once against one shared context.

   The context is a byte string of 3n + 1 words written once by
   slicer_mont_setup: the modulus words, -m^(-1) mod 2^64, R mod m (the
   Montgomery form of 1) and R^2 mod m (one product with it converts a
   residue into the domain).

   Every exponent walk (the ladder behind Mont.pow, the strong
   probable-prime test, the Lucas ladder and the pair exponentiation)
   keeps its working values in a byte string its caller owns, and OCaml
   drives it in calls over a bounded range of exponent bits, so that
   every return is a safepoint.

   The multiply, the square, and modular addition and subtraction have
   one body each, written over n words and instantiated where n is a
   constant: at Slicer's own sizes, 4 words (256-bit key primes), 5
   (272-bit prime representatives) and 8 (512-bit accumulator and
   trapdoor moduli), the compiler unrolls the word loops in full and
   keeps the running sums in registers; every other size runs the same
   bodies over a variable n. Every entry point picks its instance once
   from n (kernel_at) and calls it through that pointer. The kernels
   stay portable C, with no assembly and no CPU-feature dispatch, so a
   value is the same whatever host and instance computed it. */

#include <caml/mlvalues.h>
#include <string.h>
#include "limbs.h"

/* The bodies are inlined into each instance, where UNROLL unrolls
   their word loops: in full at a constant n, and by up to 16 words
   elsewhere. A compiler without either extension compiles the same
   loops as written. */
#if defined(__GNUC__)
#define INLINE static inline __attribute__((always_inline))
#else
#define INLINE static inline
#endif
#define UNROLL _Pragma("GCC unroll 16")

/* r <- t - m when the (n+1)-word value top:t is at least m, else t.
   Every caller's t is below 2m, and r never aliases t. The difference
   is always formed and the result picked by a mask, with no branch on
   the data: which way it goes is a coin toss on every product. */
INLINE void final_sub(word *r, const word *t, word top, const word *m, mlsize_t n)
{
  word d[n], borrow = 0, keep;
  mlsize_t i;
  UNROLL
  for (i = 0; i < n; i++) {
    dword x = (dword)t[i] - m[i] - borrow;
    d[i] = (word)x;
    borrow = (word)(x >> 64) & 1;
  }
  /* top:t - m borrows out of top exactly when top is 0 and t < m. */
  keep = (word)0 - (borrow & (word)(top == 0));
  UNROLL
  for (i = 0; i < n; i++) r[i] = (t[i] & keep) | (d[i] & ~keep);
}

/* Coarsely integrated operand scanning (Koç, Acar and Kaliski, 1996):
   r <- a·b·R^(-1) mod m, one reduction step per multiplier word. */
INLINE void mul_body(word *r, const word *a, const word *b, const word *m, word minv, mlsize_t n)
{
  word t[n + 2];
  mlsize_t i, j;
  memset(t, 0, sizeof t);
  UNROLL
  for (i = 0; i < n; i++) {
    word c = 0, u;
    dword p;
    UNROLL
    for (j = 0; j < n; j++) {
      p = (dword)a[i] * b[j] + t[j] + c;
      t[j] = (word)p;
      c = (word)(p >> 64);
    }
    p = (dword)t[n] + c;
    t[n] = (word)p;
    t[n + 1] = (word)(p >> 64);
    u = t[0] * minv;
    p = (dword)u * m[0] + t[0];
    c = (word)(p >> 64);
    UNROLL
    for (j = 1; j < n; j++) {
      p = (dword)u * m[j] + t[j] + c;
      t[j - 1] = (word)p;
      c = (word)(p >> 64);
    }
    p = (dword)t[n] + c;
    t[n - 1] = (word)p;
    t[n] = t[n + 1] + (word)(p >> 64);
  }
  final_sub(r, t, t[n], m, n);
}

/* r <- a²·R^(-1) mod m: each cross product once, doubled, plus the
   diagonal squares, then a separate word-by-word reduction of the
   2n-word square. Squarings are most of every exponentiation ladder. */
INLINE void sqr_body(word *r, const word *a, const word *m, word minv, mlsize_t n)
{
  word t[2 * n], c, hi = 0;
  mlsize_t i, j;
  dword p;
  memset(t, 0, sizeof t);
  UNROLL
  for (i = 0; i < n; i++) {
    c = 0;
    UNROLL
    for (j = i + 1; j < n; j++) {
      p = (dword)a[i] * a[j] + t[i + j] + c;
      t[i + j] = (word)p;
      c = (word)(p >> 64);
    }
    t[i + n] = c;
  }
  /* The cross sum is below a²/2 < 2^(128n - 1): doubling cannot carry
     out, nor can adding the diagonals after it. */
  UNROLL
  for (i = 2 * n - 1; i > 0; i--) t[i] = (t[i] << 1) | (t[i - 1] >> 63);
  t[0] <<= 1;
  c = 0;
  UNROLL
  for (i = 0; i < n; i++) {
    dword s;
    p = (dword)a[i] * a[i];
    s = (dword)t[2 * i] + (word)p + c;
    t[2 * i] = (word)s;
    s = (dword)t[2 * i + 1] + (word)(p >> 64) + (word)(s >> 64);
    t[2 * i + 1] = (word)s;
    c = (word)(s >> 64);
  }
  /* Step i clears word i and leaves its carry out of word i + n in
     [hi], which step i + 1 adds in at its own word (i + 1) + n. */
  UNROLL
  for (i = 0; i < n; i++) {
    word u = t[i] * minv;
    c = 0;
    UNROLL
    for (j = 0; j < n; j++) {
      p = (dword)u * m[j] + t[i + j] + c;
      t[i + j] = (word)p;
      c = (word)(p >> 64);
    }
    p = (dword)t[i + n] + c + hi;
    t[i + n] = (word)p;
    hi = (word)(p >> 64);
  }
  final_sub(r, t + n, hi, m, n);
}

/* r <- a + b mod m, for a, b < m; r may alias either. */
INLINE void add_body(word *r, const word *a, const word *b, const word *m, mlsize_t n)
{
  word t[n], c = 0;
  mlsize_t i;
  UNROLL
  for (i = 0; i < n; i++) {
    dword s = (dword)a[i] + b[i] + c;
    t[i] = (word)s;
    c = (word)(s >> 64);
  }
  final_sub(r, t, c, m, n);
}

/* r <- a - b mod m, for a, b < m; r may alias either. */
INLINE void sub_body(word *r, const word *a, const word *b, const word *m, mlsize_t n)
{
  word borrow = 0, c = 0;
  mlsize_t i;
  UNROLL
  for (i = 0; i < n; i++) {
    dword d = (dword)a[i] - b[i] - borrow;
    r[i] = (word)d;
    borrow = (word)(d >> 64) & 1;
  }
  if (borrow) {
    UNROLL
    for (i = 0; i < n; i++) {
      dword s = (dword)r[i] + m[i] + c;
      r[i] = (word)s;
      c = (word)(s >> 64);
    }
  }
}

/* The kernel at one word count: the product, the square, and modular
   addition and subtraction. Every instance takes n, so that one pointer
   type serves them all; an instance at a constant size ignores it. */
typedef struct {
  void (*mul)(word *r, const word *a, const word *b, const word *m, word minv, mlsize_t n);
  void (*sqr)(word *r, const word *a, const word *m, word minv, mlsize_t n);
  void (*add)(word *r, const word *a, const word *b, const word *m, mlsize_t n);
  void (*sub)(word *r, const word *a, const word *b, const word *m, mlsize_t n);
} kernel;

/* kernel##S: the bodies at N words. */
#define INSTANCE(S, N)                                                                             \
  static void mont_mul##S(word *r, const word *a, const word *b, const word *m, word minv,        \
                          mlsize_t n)                                                              \
  {                                                                                                \
    (void)n;                                                                                       \
    mul_body(r, a, b, m, minv, N);                                                                 \
  }                                                                                                \
  static void mont_sqr##S(word *r, const word *a, const word *m, word minv, mlsize_t n)           \
  {                                                                                                \
    (void)n;                                                                                       \
    sqr_body(r, a, m, minv, N);                                                                    \
  }                                                                                                \
  static void mod_add##S(word *r, const word *a, const word *b, const word *m, mlsize_t n)        \
  {                                                                                                \
    (void)n;                                                                                       \
    add_body(r, a, b, m, N);                                                                       \
  }                                                                                                \
  static void mod_sub##S(word *r, const word *a, const word *b, const word *m, mlsize_t n)        \
  {                                                                                                \
    (void)n;                                                                                       \
    sub_body(r, a, b, m, N);                                                                       \
  }                                                                                                \
  static const kernel kernel##S = { mont_mul##S, mont_sqr##S, mod_add##S, mod_sub##S };
INSTANCE(4, 4)
INSTANCE(5, 5)
INSTANCE(8, 8)
INSTANCE(_n, n)

/* The instance for n words. */
static const kernel *kernel_at(mlsize_t n)
{
  switch (n) {
  case 4: return &kernel4;
  case 5: return &kernel5;
  case 8: return &kernel8;
  default: return &kernel_n;
  }
}

/* r <- q·a mod m for a small signed q, by doublings and additions from
   the top bit of |q|: a few modular additions where a product would pay
   a multiply-reduce. Scaling a Montgomery form gives the Montgomery form
   of the scaled residue, so q needs no conversion. r may alias a. */
static void mod_small(const kernel *kn, word *r, const word *a, intnat q, const word *m,
                      mlsize_t n)
{
  uintnat k = q < 0 ? (uintnat)0 - (uintnat)q : (uintnat)q;
  word x[n], zero[n];
  int bit;
  memset(zero, 0, sizeof zero);
  if (k == 0) {
    memcpy(r, zero, sizeof zero);
    return;
  }
  memcpy(x, a, sizeof x);
  memcpy(r, x, sizeof x);
  for (bit = 62 - __builtin_clzll(k); bit >= 0; bit--) {
    kn->add(r, r, r, m, n);
    if ((k >> bit) & 1) kn->add(r, r, x, m, n);
  }
  if (q < 0) kn->sub(r, zero, r, m, n);
}

static inline int equal(const word *a, const word *b, mlsize_t n)
{
  return memcmp(a, b, n * sizeof(word)) == 0;
}

static inline int is_zero(const word *a, mlsize_t n)
{
  while (n > 0)
    if (a[--n] != 0) return 0;
  return 1;
}

static inline mlsize_t ctx_words(value ctx)
{
  return (caml_string_length(ctx) / sizeof(word) - 1) / 3;
}

/* The context's Montgomery form of 1 (R mod m), and R^2 mod m. */
static inline const word *ctx_one(const word *m, mlsize_t n)
{
  return m + n + 1;
}

static inline const word *ctx_r2(const word *m, mlsize_t n)
{
  return m + 2 * n + 1;
}

/* Fills the context from the modulus limbs: the words of m, then
   -m^(-1) mod 2^64 by Newton's iteration (m·m = 1 mod 8 for odd m, and
   each step doubles the correct low bits: 3, 6, ..., 96), then R mod m
   and R^2 mod m by modular doublings and squarings, with no division. */
value slicer_mont_setup(value vm, value ctx)
{
  mlsize_t n = ctx_words(ctx);
  const kernel *kn = kernel_at(n);
  word *w = (word *)Bytes_val(ctx);
  word *one = w + n + 1, *r2 = one + n, x;
  mlsize_t bits, i;
  int j;
  pack(vm, w, n);
  x = w[0];
  for (j = 0; j < 5; j++) x *= 2 - w[0] * x;
  w[n] = (word)0 - x;
  /* R mod m: 2^(bits - 1) is below the odd, bits-bit m; double it
     64n - bits + 1 times. */
  bits = 64 * n - __builtin_clzll(w[n - 1]);
  memset(one, 0, n * sizeof(word));
  one[(bits - 1) / 64] = (word)1 << ((bits - 1) % 64);
  for (i = bits - 1; i < 64 * n; i++) kn->add(one, one, one, w, n);
  /* R^2 mod m is the Montgomery form of 2^(64n): square-and-double
     over the bits of 64n from the Montgomery form of 1. */
  memcpy(r2, one, n * sizeof(word));
  for (j = 63 - __builtin_clzll(64 * n); j >= 0; j--) {
    kn->sqr(r2, r2, w, w[n], n);
    if (((64 * n) >> j) & 1) kn->add(r2, r2, r2, w, n);
  }
  return Val_unit;
}

/* Slot [vslot] of a walk's state (n words each) out of the domain into
   the limbs of [dst]: a product with 1. */
value slicer_mont_out(value ctx, value vst, value vslot, value dst)
{
  mlsize_t n = ctx_words(ctx);
  const kernel *kn = kernel_at(n);
  const word *m = (const word *)String_val(ctx);
  const word *x = (const word *)Bytes_val(vst) + Long_val(vslot) * n;
  word one[n], r[n];
  memset(one, 0, sizeof one);
  one[0] = 1;
  kn->mul(r, x, one, m, m[n], n);
  unpack(r, n, dst);
  return Val_unit;
}

/* Bit [i] of the limbs of [e]. */
static inline unsigned limb_bit(value e, mlsize_t i)
{
  mlsize_t l = i / LIMB_BITS;
  return l < Wosize_val(e) && (((word)Long_val(Field(e, l)) >> (i % LIMB_BITS)) & 1);
}

/* The ladder behind Mont.pow and the strong test: sliding windows of at
   most w bits that end on a set bit, over the odd powers b, b^3, ...,
   b^(2^w - 1) of the base, which the state tables after its
   accumulator (n words each). w = 0 is base 2: a set bit doubles the
   accumulator, a modular addition in place of a product. */

/* Accumulator <- 1, and the table from the base [vb] < m. */
value slicer_mont_ladder_start(value ctx, value vst, value vb, value vw)
{
  mlsize_t n = ctx_words(ctx);
  const kernel *kn = kernel_at(n);
  const word *m = (const word *)String_val(ctx);
  unsigned w = Long_val(vw);
  word *acc = (word *)Bytes_val(vst), *tbl = acc + n;
  mlsize_t i;
  memcpy(acc, ctx_one(m, n), n * sizeof(word));
  if (w > 0) {
    word b[n], b2[n];
    pack(vb, b, n);
    kn->mul(tbl, b, ctx_r2(m, n), m, m[n], n);
    kn->sqr(b2, tbl, m, m[n], n);
    for (i = 1; i < (mlsize_t)1 << (w - 1); i++)
      kn->mul(tbl + i * n, tbl + (i - 1) * n, b2, m, m[n], n);
  }
  return Val_unit;
}

/* Exponent bits [lo, hi) of [ve], the top first. No window reaches
   below lo, so calls over consecutive ranges compose. */
value slicer_mont_ladder(value ctx, value vst, value ve, value vw, value vhi, value vlo)
{
  mlsize_t n = ctx_words(ctx);
  const kernel *kn = kernel_at(n);
  const word *m = (const word *)String_val(ctx);
  unsigned w = Long_val(vw);
  word *acc = (word *)Bytes_val(vst);
  const word *tbl = acc + n;
  intnat i = Long_val(vhi) - 1, lo = Long_val(vlo);
  while (i >= lo) {
    if (!limb_bit(ve, i) || w == 0) {
      kn->sqr(acc, acc, m, m[n], n);
      if (limb_bit(ve, i)) kn->add(acc, acc, acc, m, n);
      i--;
    }
    else {
      intnat j = i - (intnat)w + 1 > lo ? i - (intnat)w + 1 : lo, k;
      unsigned v = 0;
      while (!limb_bit(ve, j)) j++;
      for (k = i; k >= j; k--) {
        kn->sqr(acc, acc, m, m[n], n);
        v = (v << 1) | limb_bit(ve, k);
      }
      kn->mul(acc, acc, tbl + (size_t)(v >> 1) * n, m, m[n], n);
      i = j - 1;
    }
  }
  return Val_unit;
}

value slicer_mont_ladder_byte(value *argv, int argn)
{
  (void)argn;
  return slicer_mont_ladder(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5]);
}

/* The strong probable-prime test's end, with the accumulator at b^d for
   n - 1 = 2^s·d (d odd): whether b^d = 1 or b^(d·2^r) = -1 for some
   r < s. The squarings stop at the first 1, which no later one leaves. */
value slicer_mont_strong_tail(value ctx, value vst, value vs)
{
  mlsize_t n = ctx_words(ctx);
  const kernel *kn = kernel_at(n);
  const word *m = (const word *)String_val(ctx);
  const word *one = ctx_one(m, n);
  word *x = (word *)Bytes_val(vst), minus_one[n], zero[n];
  intnat r, s = Long_val(vs);
  memset(zero, 0, sizeof zero);
  kn->sub(minus_one, zero, one, m, n);
  if (equal(x, one, n)) return Val_true;
  for (r = 0; r < s; r++) {
    if (equal(x, minus_one, n)) return Val_true;
    if (r + 1 < s) {
      kn->sqr(x, x, m, m[n], n);
      if (equal(x, one, n)) return Val_false;
    }
  }
  return Val_false;
}

/* The strong Lucas test's ladder over an index k, for the Lucas
   sequences with P = 1 and a small Q. The state holds V_k, V_(k+1) and
   Q^k in Montgomery form, and each bit of k below its top takes

     0:  V_2k = V_k^2 - 2Q^k,           V_(2k+1) = V_k·V_(k+1) - Q^k,  Q^2k = (Q^k)^2
     1:  V_(2k+1) = V_k·V_(k+1) - Q^k,  V_(2k+2) = V_(k+1)^2 - 2Q^(k+1),  Q^(2k+1) = (Q^k)^2·Q

   One product and one squaring per bit, plus one squaring for Q^k when
   |Q| > 1; the scalings by Q are modular additions. When |Q| = 1 (Q = -1
   for D = 5, half of all primes) Q^k is a sign: Q^2k = 1 and
   Q^(2k+1) = Q. U_k is never formed: 2V_(k+1) - V_k = D·U_k. */

/* k = 1: V_1 = 1, V_2 = 1 - 2Q, Q^1 = Q. */
value slicer_mont_lucas_start(value ctx, value vst, value vq)
{
  mlsize_t n = ctx_words(ctx);
  const kernel *kn = kernel_at(n);
  const word *m = (const word *)String_val(ctx);
  const word *one = ctx_one(m, n);
  word *v = (word *)Bytes_val(vst), *v1 = v + n, *qk = v1 + n;
  memcpy(v, one, n * sizeof(word));
  mod_small(kn, qk, one, Long_val(vq), m, n);
  kn->sub(v1, one, qk, m, n);
  kn->sub(v1, v1, qk, m, n);
  return Val_unit;
}

/* x <- x - c when [pos], else x + c: subtracting a sign times c. */
static void sub_signed(const kernel *kn, word *x, const word *c, int pos, const word *m,
                       mlsize_t n)
{
  if (pos) kn->sub(x, x, c, m, n);
  else kn->add(x, x, c, m, n);
}

/* Index bits [lo, hi) of [ve], the top first. */
value slicer_mont_lucas(value ctx, value vst, value ve, value vq, value vhi, value vlo)
{
  mlsize_t n = ctx_words(ctx);
  const kernel *kn = kernel_at(n);
  const word *m = (const word *)String_val(ctx);
  const word *one = ctx_one(m, n);
  word *v = (word *)Bytes_val(vst), *v1 = v + n, *qk = v1 + n, t[n];
  intnat q = Long_val(vq), i, lo = Long_val(vlo);
  if (q == 1 || q == -1) {
    /* [pos]: Q^k = 1, else -1. */
    int pos = equal(qk, one, n);
    word two[n];
    kn->add(two, one, one, m, n);
    for (i = Long_val(vhi) - 1; i >= lo; i--) {
      if (limb_bit(ve, i)) {
        kn->mul(v, v, v1, m, m[n], n);
        sub_signed(kn, v, one, pos, m, n);
        kn->sqr(v1, v1, m, m[n], n);
        sub_signed(kn, v1, two, pos == (q == 1), m, n);
        pos = q == 1;
      }
      else {
        kn->mul(v1, v, v1, m, m[n], n);
        sub_signed(kn, v1, one, pos, m, n);
        kn->sqr(v, v, m, m[n], n);
        sub_signed(kn, v, two, pos, m, n);
        pos = 1;
      }
    }
    mod_small(kn, qk, one, pos ? 1 : -1, m, n);
  }
  else
    for (i = Long_val(vhi) - 1; i >= lo; i--) {
      if (limb_bit(ve, i)) {
        kn->mul(v, v, v1, m, m[n], n);
        kn->sub(v, v, qk, m, n);
        mod_small(kn, t, qk, q, m, n);
        kn->sqr(v1, v1, m, m[n], n);
        kn->sub(v1, v1, t, m, n);
        kn->sub(v1, v1, t, m, n);
        kn->sqr(qk, qk, m, m[n], n);
        mod_small(kn, qk, qk, q, m, n);
      }
      else {
        kn->mul(v1, v, v1, m, m[n], n);
        kn->sub(v1, v1, qk, m, n);
        kn->sqr(v, v, m, m[n], n);
        kn->sub(v, v, qk, m, n);
        kn->sub(v, v, qk, m, n);
        kn->sqr(qk, qk, m, m[n], n);
      }
    }
  return Val_unit;
}

value slicer_mont_lucas_byte(value *argv, int argn)
{
  (void)argn;
  return slicer_mont_lucas(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5]);
}

/* The strong Lucas verdict, with the state at index d for n + 1 = 2^s·d
   (d odd): 1 when U_d = 0, 2 + r for the first r < s with
   V_(d·2^r) = 0, and 0 when neither holds. 2V_(d+1) = V_d is U_d = 0
   whenever D is prime to n, as (D/n) = -1 makes it. The doublings
   V_2k = V_k^2 - 2Q^k, Q^2k = (Q^k)^2 stop at the first zero. */
value slicer_mont_lucas_tail(value ctx, value vst, value vs)
{
  mlsize_t n = ctx_words(ctx);
  const kernel *kn = kernel_at(n);
  const word *m = (const word *)String_val(ctx);
  word *v = (word *)Bytes_val(vst), *v1 = v + n, *qk = v1 + n, t[n];
  intnat r, s = Long_val(vs);
  kn->add(t, v1, v1, m, n);
  if (equal(t, v, n)) return Val_long(1);
  for (r = 0; r < s; r++) {
    if (is_zero(v, n)) return Val_long(2 + r);
    if (r + 1 < s) {
      kn->sqr(v, v, m, m[n], n);
      kn->sub(v, v, qk, m, n);
      kn->sub(v, v, qk, m, n);
      kn->sqr(qk, qk, m, m[n], n);
    }
  }
  return Val_long(0);
}

/* The w bits of [e] from bit [pos] up; w is at most 10, so a digit
   spans at most two limbs. */
static unsigned limb_digit(value e, mlsize_t pos, unsigned w)
{
  mlsize_t len = Wosize_val(e), i = pos / LIMB_BITS;
  unsigned off = pos % LIMB_BITS;
  word v;
  if (i >= len) return 0;
  v = (word)Long_val(Field(e, i)) >> off;
  if (off + w > LIMB_BITS && i + 1 < len) v |= (word)Long_val(Field(e, i + 1)) << (LIMB_BITS - off);
  return (unsigned)(v & (((word)1 << w) - 1));
}

/* The pair exponentiation (b^e1, b^e2) of Bigint.Mont.pow2 grows one
   squaring chain B_i = b^(2^(w·i)) shared by both exponents: each
   exponent's w-bit digit i multiplies B_i into that exponent's bucket
   for the digit value, and each bucket set folds to Π_d bucket_d^d
   (Brickell–Gordon–McCurley–Wilson digits, Yao's fold). About
   max(|e1|, |e2|) squarings plus (|e1| + |e2|)/w + 2^(w+2) products,
   against |e1| + |e2| squarings for two ladders.

   OCaml drives it in calls of a bounded length, so that every return
   is a safepoint: a start, slices of digits, and one fold per exponent.
   The state lives in one OCaml byte string per pair, which no call
   keeps a pointer into: the chain's current power B (n words), then
   2·2^w buckets of n words (the first exponent's set, then the
   second's), then 2·2^w presence flags. */

static unsigned char *pow2_flags(word *st, unsigned nb, mlsize_t n)
{
  return (unsigned char *)(st + n + 2 * (size_t)nb * n);
}

/* B <- the base [vb] < m, into the domain; every bucket empty. */
value slicer_mont_pow2_start(value ctx, value vst, value vb, value vw)
{
  mlsize_t n = ctx_words(ctx);
  const kernel *kn = kernel_at(n);
  const word *m = (const word *)String_val(ctx);
  unsigned nb = 1u << Long_val(vw);
  word *st = (word *)Bytes_val(vst), b[n];
  pack(vb, b, n);
  kn->mul(st, b, ctx_r2(m, n), m, m[n], n);
  memset(pow2_flags(st, nb, n), 0, 2 * (size_t)nb);
  return Val_unit;
}

/* Digits [from, to) of both exponents: before digit i > 0, w squarings
   advance B to B_i; then each exponent's nonzero digit multiplies B_i
   into its bucket. */
value slicer_mont_pow2_digits(value ctx, value vst, value ve1, value ve2, value vw, value vfrom,
                              value vto)
{
  mlsize_t n = ctx_words(ctx);
  const kernel *kn = kernel_at(n);
  const word *m = (const word *)String_val(ctx);
  mlsize_t i, to = Long_val(vto);
  unsigned w = Long_val(vw), nb = 1u << w, j, s;
  word *b = (word *)Bytes_val(vst), *bucket = b + n;
  unsigned char *has = pow2_flags(b, nb, n);
  value ve[2] = { ve1, ve2 };
  for (i = Long_val(vfrom); i < to; i++) {
    if (i > 0)
      for (j = 0; j < w; j++) kn->sqr(b, b, m, m[n], n);
    for (s = 0; s < 2; s++) {
      unsigned d = limb_digit(ve[s], i * w, w), k = s * nb + d;
      word *slot = bucket + (size_t)k * n;
      if (d == 0) continue;
      if (has[k]) kn->mul(slot, slot, b, m, m[n], n);
      else memcpy(slot, b, n * sizeof(word));
      has[k] = 1;
    }
  }
  return Val_unit;
}

value slicer_mont_pow2_digits_byte(value *argv, int argn)
{
  (void)argn;
  return slicer_mont_pow2_digits(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6]);
}

/* Set [vs] (0 for e1, 1 for e2) folded out of the domain into [dst] by
   Yao's running product: scanning d from 2^w - 1 down, [run] holds the
   product of buckets >= d and r gathers one factor of [run] per d, so
   bucket d is raised to d. At most 2^(w+1) products; an empty set (a
   zero exponent) gives 1. */
value slicer_mont_pow2_fold(value ctx, value vst, value vw, value vs, value dst)
{
  mlsize_t n = ctx_words(ctx);
  const kernel *kn = kernel_at(n);
  const word *m = (const word *)String_val(ctx);
  unsigned nb = 1u << Long_val(vw), d;
  word *st = (word *)Bytes_val(vst);
  const word *bucket = st + n + (size_t)Long_val(vs) * nb * n;
  const unsigned char *has = pow2_flags(st, nb, n) + (size_t)Long_val(vs) * nb;
  word run[n], r[n], one[n];
  int have_run = 0, have_r = 0;
  memset(one, 0, sizeof one);
  one[0] = 1;
  for (d = nb - 1; d >= 1; d--) {
    if (has[d]) {
      if (have_run) kn->mul(run, run, bucket + (size_t)d * n, m, m[n], n);
      else memcpy(run, bucket + (size_t)d * n, sizeof run);
      have_run = 1;
    }
    if (have_run) {
      if (have_r) kn->mul(r, r, run, m, m[n], n);
      else memcpy(r, run, sizeof r);
      have_r = 1;
    }
  }
  if (have_r) kn->mul(r, r, one, m, m[n], n);
  else memcpy(r, one, sizeof r);
  unpack(r, n, dst);
  return Val_unit;
}

/* Divisors up to this take the residue scan's division-free steps. */
#define SMALL_DIVISOR ((word)1 << 16)

/* |x| mod p and |x| mod q for 0 < p, q <= SMALL_DIVISOR: Horner's rule
   over the 31-bit limbs from the top, both divisors in one pass, with
   one division per divisor and none per step. For c = ceil(2^64 / p),
   a step's v = r·2^31 + limb < 2^47 has v mod p = ((c·v mod 2^64)·p)
   >> 64, exact whenever bits(v) + bits(p) <= 64 (Lemire, Kaser and
   Kurz, "Faster remainder by direct computation", 2019, Theorem 1).
   A divisor of 1 wraps c to 0 and gives 0. */
static void small_residues(value x, word p, word q, word *r)
{
  word cp = ~(word)0 / p + 1, cq = ~(word)0 / q + 1, rp = 0, rq = 0;
  mlsize_t i = Wosize_val(x);
  while (i > 0) {
    word l = (word)Field(x, --i) >> 1;
    rp = (word)(((dword)(cp * ((rp << LIMB_BITS) | l)) * p) >> 64);
    rq = (word)(((dword)(cq * ((rq << LIMB_BITS) | l)) * q) >> 64);
  }
  r[0] = rp;
  r[1] = rq;
}

/* |x| mod d for 0 < d < 2^31: Horner's rule over the 31-bit limbs from
   the top, one division per step. */
static word residue(value x, word d)
{
  mlsize_t i = Wosize_val(x);
  word r = 0;
  while (i > 0) {
    i--;
    r = ((r << LIMB_BITS) | (word)Long_val(Field(x, i))) % d;
  }
  return r;
}

/* |x| mod primes[i] in order, into dst[i] when [dst] is an array, or up
   to the first zero when it is unit: the index past the last residue
   taken, or -1 when a divisor is outside [1, 2^31). */
static intnat scan_residues(value vx, value vprimes, value dst)
{
  mlsize_t i, k, len = Wosize_val(vprimes);
  for (i = 0; i < len; i++)
    if (Long_val(Field(vprimes, i)) <= 0 || Long_val(Field(vprimes, i)) > (intnat)LIMB_MASK)
      return -1;
  /* Two divisors per pass; an odd count's last pass pairs with 1. */
  for (i = 0; i < len; i += 2) {
    word p = (word)Field(vprimes, i) >> 1, r[2];
    word q = i + 1 < len ? (word)Field(vprimes, i + 1) >> 1 : 1;
    if (p <= SMALL_DIVISOR && q <= SMALL_DIVISOR) small_residues(vx, p, q, r);
    else {
      r[0] = residue(vx, p);
      r[1] = residue(vx, q);
    }
    for (k = 0; k < 2 && i + k < len; k++) {
      if (dst == Val_unit) {
        if (r[k] == 0) return i + k;
      }
      else
        Field(dst, i + k) = Val_long(r[k]);
    }
  }
  return len;
}

/* dst[i] <- |x| mod primes[i], for every prime: the residues a prime
   walk's sieve starts from. False, with dst undefined, when a divisor
   is out of range. */
value slicer_residues(value vx, value vprimes, value dst)
{
  return Val_bool(scan_residues(vx, vprimes, dst) >= 0);
}

/* The index of the first of [primes] that divides |x|, or their count:
   trial division. -1 when a divisor is out of range. */
value slicer_first_divisor(value vx, value vprimes)
{
  return Val_long(scan_residues(vx, vprimes, Val_unit));
}
