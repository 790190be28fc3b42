/* Montgomery multiplication kernel for Bigint.Mont.

   Operands are OCaml int arrays of 31-bit limbs (little-endian) holding
   residues below an odd modulus m. Each call packs them into
   n = ceil(bits(m) / 64) 64-bit words on the stack, runs one fused
   multiply-reduce over unsigned __int128 products with R = 2^(64n), and
   unpacks the result into the destination array's limbs. Nothing is
   allocated on the OCaml heap (a call takes about 4n words of C stack)
   and no state outlives a call, so the entry points are [@@noalloc]
   and safe to run on several domains at once against one shared
   context.

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
