/* Montgomery multiplication kernel for Bigint.Mont.

   Operands are OCaml int arrays of 31-bit limbs (little-endian) holding
   residues below an odd modulus m. Each call packs them into
   n = ceil(bits(m) / 64) 64-bit words on the stack, runs one fused
   multiply-reduce over unsigned __int128 products with R = 2^(64n), and
   unpacks the result into the destination array's limbs. Nothing is
   allocated on the OCaml heap (a call takes about 4n words of C stack)
   and no state outlives a call except in a byte string its caller owns
   (the pair exponentiation's), so the entry points are [@@noalloc] and
   safe to run on several domains at once against one shared context.

   The context is a byte string of n + 1 words written once by
   slicer_mont_setup: the modulus words, then -m^(-1) mod 2^64. */

#include <caml/mlvalues.h>
#include <string.h>
#include "limbs.h"

/* r <- t - m when the (n+1)-word value top:t is at least m, else t.
   Every caller's t is below 2m. */
static void final_sub(word *r, const word *t, word top, const word *m, mlsize_t n)
{
  mlsize_t i = n;
  int ge = top != 0;
  if (!ge) {
    while (i > 0 && t[i - 1] == m[i - 1]) i--;
    ge = i == 0 || t[i - 1] > m[i - 1];
  }
  if (ge) {
    word borrow = 0;
    for (i = 0; i < n; i++) {
      dword d = (dword)t[i] - m[i] - borrow;
      r[i] = (word)d;
      borrow = (word)(d >> 64) & 1;
    }
  }
  else
    memcpy(r, t, n * sizeof(word));
}

/* Coarsely integrated operand scanning (Koç, Acar and Kaliski, 1996):
   r <- a·b·R^(-1) mod m, one reduction step per multiplier word. */
static void mont_mul(word *r, const word *a, const word *b, const word *m, word minv,
                     mlsize_t n)
{
  word t[n + 2];
  mlsize_t i, j;
  memset(t, 0, sizeof t);
  for (i = 0; i < n; i++) {
    word c = 0, u;
    dword p;
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
static void mont_sqr(word *r, const word *a, const word *m, word minv, mlsize_t n)
{
  word t[2 * n], c, hi = 0;
  mlsize_t i, j;
  dword p;
  memset(t, 0, sizeof t);
  for (i = 0; i < n; i++) {
    c = 0;
    for (j = i + 1; j < n; j++) {
      p = (dword)a[i] * a[j] + t[i + j] + c;
      t[i + j] = (word)p;
      c = (word)(p >> 64);
    }
    t[i + n] = c;
  }
  /* The cross sum is below a²/2 < 2^(128n - 1): doubling cannot carry
     out, nor can adding the diagonals after it. */
  for (i = 2 * n - 1; i > 0; i--) t[i] = (t[i] << 1) | (t[i - 1] >> 63);
  t[0] <<= 1;
  c = 0;
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
  for (i = 0; i < n; i++) {
    word u = t[i] * minv;
    c = 0;
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

static inline mlsize_t ctx_words(value ctx)
{
  return caml_string_length(ctx) / sizeof(word) - 1;
}

/* Fills the context from the modulus limbs: the words of m, then
   -m^(-1) mod 2^64 by Newton's iteration (m·m = 1 mod 8 for odd m, and
   each step doubles the correct low bits: 3, 6, ..., 96). */
value slicer_mont_setup(value vm, value ctx)
{
  word *w = (word *)Bytes_val(ctx);
  mlsize_t n = ctx_words(ctx);
  word x;
  int i;
  pack(vm, w, n);
  x = w[0];
  for (i = 0; i < 5; i++) x *= 2 - w[0] * x;
  w[n] = (word)0 - x;
  return Val_unit;
}

value slicer_mont_mul(value ctx, value dst, value va, value vb)
{
  const word *m = (const word *)String_val(ctx);
  mlsize_t n = ctx_words(ctx);
  word a[n], b[n], r[n];
  pack(va, a, n);
  pack(vb, b, n);
  mont_mul(r, a, b, m, m[n], n);
  unpack(r, n, dst);
  return Val_unit;
}

value slicer_mont_sqr(value ctx, value dst, value va)
{
  const word *m = (const word *)String_val(ctx);
  mlsize_t n = ctx_words(ctx);
  word a[n], r[n];
  pack(va, a, n);
  mont_sqr(r, a, m, m[n], n);
  unpack(r, n, dst);
  return Val_unit;
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

/* B <- the Montgomery-form base [vb]; every bucket empty. */
value slicer_mont_pow2_start(value ctx, value vst, value vb, value vw)
{
  mlsize_t n = ctx_words(ctx);
  unsigned nb = 1u << Long_val(vw);
  word *st = (word *)Bytes_val(vst);
  pack(vb, st, n);
  memset(pow2_flags(st, nb, n), 0, 2 * (size_t)nb);
  return Val_unit;
}

/* Digits [from, to) of both exponents: before digit i > 0, w squarings
   advance B to B_i; then each exponent's nonzero digit multiplies B_i
   into its bucket. */
value slicer_mont_pow2_digits(value ctx, value vst, value ve1, value ve2, value vw, value vfrom,
                              value vto)
{
  const word *m = (const word *)String_val(ctx);
  mlsize_t n = ctx_words(ctx), i, to = Long_val(vto);
  unsigned w = Long_val(vw), nb = 1u << w, j, s;
  word *b = (word *)Bytes_val(vst), *bucket = b + n;
  unsigned char *has = pow2_flags(b, nb, n);
  value ve[2] = { ve1, ve2 };
  for (i = Long_val(vfrom); i < to; i++) {
    if (i > 0)
      for (j = 0; j < w; j++) mont_sqr(b, b, m, m[n], n);
    for (s = 0; s < 2; s++) {
      unsigned d = limb_digit(ve[s], i * w, w), k = s * nb + d;
      word *slot = bucket + (size_t)k * n;
      if (d == 0) continue;
      if (has[k]) mont_mul(slot, slot, b, m, m[n], n);
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
  const word *m = (const word *)String_val(ctx);
  mlsize_t n = ctx_words(ctx);
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
      if (have_run) mont_mul(run, run, bucket + (size_t)d * n, m, m[n], n);
      else memcpy(run, bucket + (size_t)d * n, sizeof run);
      have_run = 1;
    }
    if (have_run) {
      if (have_r) mont_mul(r, r, run, m, m[n], n);
      else memcpy(r, run, sizeof r);
      have_r = 1;
    }
  }
  if (have_r) mont_mul(r, r, one, m, m[n], n);
  else memcpy(r, one, sizeof r);
  unpack(r, n, dst);
  return Val_unit;
}
