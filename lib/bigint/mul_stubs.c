/* Product kernel for Bigint.mul.

   The operands' 31-bit limbs are packed into 64-bit words in one
   buffer on the C heap, multiplied there (schoolbook below
   KARATSUBA_WORDS words, Karatsuba above it), and only the exact-size
   result is allocated on the OCaml heap. The Karatsuba recursion carves
   its temporaries out of the same buffer, so a product of any size
   costs one malloc and one OCaml block, and no garbage. No state
   outlives a call, so the entry point is safe on several domains at
   once. */

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <stdlib.h>
#include <string.h>
#include "limbs.h"

/* Below this many words in the shorter operand the schoolbook loop
   wins over a Karatsuba split. */
#define KARATSUBA_WORDS 32

/* r[0, na + nb) <- a[0, na) · b[0, nb). */
static void mul_school(word *r, const word *a, size_t na, const word *b, size_t nb)
{
  size_t i, j;
  memset(r, 0, (na + nb) * sizeof(word));
  for (i = 0; i < na; i++) {
    word c = 0;
    for (j = 0; j < nb; j++) {
      dword p = (dword)a[i] * b[j] + r[i + j] + c;
      r[i + j] = (word)p;
      c = (word)(p >> 64);
    }
    r[i + nb] = c;
  }
}

/* r[0, n) += a[0, na) with na <= n, carrying through the rest of r.
   Every caller's sum fits in n words. */
static void add_into(word *r, size_t n, const word *a, size_t na)
{
  word c = 0;
  size_t i;
  for (i = 0; i < na; i++) {
    dword s = (dword)r[i] + a[i] + c;
    r[i] = (word)s;
    c = (word)(s >> 64);
  }
  for (; c && i < n; i++) c = ++r[i] == 0;
}

/* r[0, n) -= a[0, na) with na <= n; the difference is non-negative. */
static void sub_into(word *r, size_t n, const word *a, size_t na)
{
  word b = 0;
  size_t i;
  for (i = 0; i < na; i++) {
    dword d = (dword)r[i] - a[i] - b;
    r[i] = (word)d;
    b = (word)(d >> 64) & 1;
  }
  for (; b && i < n; i++) b = r[i]-- == 0;
}

/* Scratch words kara() needs for n-word operands: each level keeps the
   two half sums and their product (4(h + 1) words) while it recurses on
   operands of at most h + 1 words. */
static size_t kara_scratch(size_t n)
{
  size_t s = 0;
  while (n >= KARATSUBA_WORDS) {
    size_t h = n - n / 2;
    s += 4 * (h + 1);
    n = h + 1;
  }
  return s;
}

/* r[0, 2n) <- a[0, n) · b[0, n). With a = a1·B^m + a0 and likewise b,
   z1 = (a0 + a1)(b0 + b1) - a0·b0 - a1·b1 is the middle term; a0·b0 and
   a1·b1 land directly in r's low and high halves. */
static void kara(word *r, const word *a, const word *b, size_t n, word *s)
{
  size_t m, h;
  word *sa, *sb, *z1, *rest;
  if (n < KARATSUBA_WORDS) {
    mul_school(r, a, n, b, n);
    return;
  }
  m = n / 2;
  h = n - m;
  sa = s;
  sb = sa + h + 1;
  z1 = sb + h + 1;
  rest = z1 + 2 * (h + 1);
  /* a0 has m <= h words: sum the common part, then carry through a1's
     extra word when n is odd. */
  memcpy(sa, a + m, h * sizeof(word));
  sa[h] = 0;
  add_into(sa, h + 1, a, m);
  memcpy(sb, b + m, h * sizeof(word));
  sb[h] = 0;
  add_into(sb, h + 1, b, m);
  kara(z1, sa, sb, h + 1, rest);
  kara(r, a, b, m, rest);
  kara(r + 2 * m, a + m, b + m, h, rest);
  sub_into(z1, 2 * (h + 1), r, 2 * m);
  sub_into(z1, 2 * (h + 1), r + 2 * m, 2 * h);
  /* z1 = a0·b1 + a1·b0 < B^(n+1): its words past r's end are zero. */
  add_into(r + m, 2 * n - m, z1, 2 * (h + 1) < 2 * n - m ? 2 * (h + 1) : 2 * n - m);
}

/* Scratch words mul() needs for an na × nb product, na >= nb: a
   balanced product runs kara() directly; an unbalanced one multiplies
   nb-word slices of a into a (2·nb)-word buffer, and a last shorter
   slice recurses with the roles swapped. */
static size_t mul_scratch(size_t na, size_t nb)
{
  size_t full, rem, last;
  if (nb < KARATSUBA_WORDS) return 0;
  if (na == nb) return kara_scratch(nb);
  full = kara_scratch(nb);
  rem = na % nb;
  last = rem == 0 ? 0 : mul_scratch(nb, rem);
  return 2 * nb + (full > last ? full : last);
}

/* r[0, na + nb) <- a · b for na >= nb. */
static void mul(word *r, const word *a, size_t na, const word *b, size_t nb, word *s)
{
  size_t off;
  word *t;
  if (nb < KARATSUBA_WORDS) {
    mul_school(r, a, na, b, nb);
    return;
  }
  if (na == nb) {
    kara(r, a, b, nb, s);
    return;
  }
  t = s;
  s += 2 * nb;
  memset(r, 0, (na + nb) * sizeof(word));
  for (off = 0; off < na; off += nb) {
    size_t len = na - off < nb ? na - off : nb;
    if (len == nb)
      kara(t, a + off, b, nb, s);
    else
      mul(t, b, nb, a + off, len, s);
    add_into(r + off, na + nb - off, t, len + nb);
  }
}

/* The product of two non-empty magnitudes, as a fresh limb array with
   no leading zero limb. */
value slicer_nat_mul(value va, value vb)
{
  CAMLparam2(va, vb);
  CAMLlocal1(res);
  size_t na = words_of_limbs(Wosize_val(va)), nb = words_of_limbs(Wosize_val(vb));
  size_t n, bits, top, scratch;
  word *a, *b, *r, *buf;
  if (na < nb) {
    value v = va;
    size_t k = na;
    va = vb;
    vb = v;
    na = nb;
    nb = k;
  }
  n = na + nb;
  scratch = mul_scratch(na, nb);
  buf = malloc((na + nb + n + scratch) * sizeof(word));
  if (buf == NULL) caml_raise_out_of_memory();
  a = buf;
  b = a + na;
  r = b + nb;
  pack(va, a, na);
  pack(vb, b, nb);
  mul(r, a, na, b, nb, r + n);
  top = n;
  while (top > 0 && r[top - 1] == 0) top--;
  bits = top == 0 ? 0 : 64 * (top - 1) + (64 - __builtin_clzll(r[top - 1]));
  res = caml_alloc((bits + LIMB_BITS - 1) / LIMB_BITS, 0);
  unpack(r, n, res);
  free(buf);
  CAMLreturn(res);
}

/* The word count below which the kernel multiplies by schoolbook. */
value slicer_karatsuba_words(value unit)
{
  (void)unit;
  return Val_long(KARATSUBA_WORDS);
}
