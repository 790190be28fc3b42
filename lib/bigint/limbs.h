/* Conversions between Bigint magnitudes (OCaml int arrays of 31-bit
   limbs, little-endian) and little-endian 64-bit words, shared by the
   Montgomery and product kernels. */

#ifndef SLICER_LIMBS_H
#define SLICER_LIMBS_H

#include <caml/mlvalues.h>
#include <stdint.h>

typedef uint64_t word;
typedef unsigned __int128 dword;

#define LIMB_BITS 31
#define LIMB_MASK ((word)0x7fffffff)

/* Words needed to hold [limbs] 31-bit limbs. */
static inline mlsize_t words_of_limbs(mlsize_t limbs)
{
  return (limbs * LIMB_BITS + 63) / 64;
}

/* Limbs of [v] into n words. Bits past 64n are dropped; the words past
   the last limb are zeroed. */
static inline void pack(value v, word *w, mlsize_t n)
{
  mlsize_t len = Wosize_val(v), i, j = 0;
  word acc = 0;
  int bits = 0;
  for (i = 0; i < len; i++) {
    word l = (word)Long_val(Field(v, i));
    acc |= l << bits;
    bits += LIMB_BITS;
    if (bits >= 64) {
      if (j < n) w[j++] = acc;
      bits -= 64;
      acc = l >> (LIMB_BITS - bits);
    }
  }
  while (j < n) {
    w[j++] = acc;
    acc = 0;
  }
}

/* n words into every limb of [v]; immediate values need no
   caml_modify. */
static inline void unpack(const word *w, mlsize_t n, value v)
{
  mlsize_t len = Wosize_val(v), i;
  for (i = 0; i < len; i++) {
    mlsize_t bit = i * LIMB_BITS, idx = bit / 64;
    unsigned off = bit % 64;
    word l = 0;
    if (idx < n) {
      l = w[idx] >> off;
      if (off > 64 - LIMB_BITS && idx + 1 < n) l |= w[idx + 1] << (64 - off);
    }
    Field(v, i) = Val_long(l & LIMB_MASK);
  }
}

#endif
