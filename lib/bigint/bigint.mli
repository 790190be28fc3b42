(** Arbitrary-precision signed integers.

    The sealed build environment has no [zarith], so every cryptographic
    substrate in this repository (RSA accumulator, trapdoor permutation,
    multiset hash over a prime field, primality testing) rests on this
    module. Magnitudes are little-endian arrays of 31-bit limbs; division
    is Knuth's Algorithm D; large products and modular exponentiation
    for odd moduli run on C kernels over 64-bit words ({!mul_kernel},
    {!Mont}). *)

type t
(** An immutable arbitrary-precision integer. *)

(** {1 Constants} *)

val zero : t
val one : t
val two : t
val minus_one : t

(** {1 Construction and conversion} *)

val of_int : int -> t

val to_int_opt : t -> int option
(** [to_int_opt x] is [Some n] when [x] fits in a native [int]. *)

val to_int_exn : t -> int
(** @raise Failure when the value does not fit in a native [int]. *)

val of_string : string -> t
(** Parses an optionally sign-prefixed decimal string.
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Decimal rendering, e.g. ["-12345"]. *)

val of_hex : string -> t
(** Parses an unsigned hexadecimal string (no ["0x"] prefix).
    @raise Invalid_argument on malformed input. *)

val to_hex : t -> string
(** Lowercase hexadecimal rendering of the absolute value. *)

val of_bytes_be : string -> t
(** Interprets a byte string as an unsigned big-endian integer, in time
    linear in its length. *)

val to_bytes_be : ?len:int -> t -> string
(** Big-endian byte rendering of the absolute value. With [~len] the
    result is left-padded with zero bytes to exactly [len] bytes.
    @raise Invalid_argument if the value needs more than [len] bytes. *)

(** {1 Product kernel}

    {!mul} multiplies operands of fewer than 32 limbs in an OCaml
    schoolbook loop. Larger ones run on a C kernel ([mul_stubs.c]) over
    64-bit words: schoolbook below {!karatsuba_words} words, Karatsuba
    above, with every temporary in one C-heap buffer, so a product puts
    only its result on the OCaml heap. The two entry points below pin
    each path for tests and benchmarks; both equal {!mul}. *)

val mul_schoolbook : t -> t -> t
(** The OCaml schoolbook, at any size: the reference the kernel is
    tested against. *)

val mul_kernel : t -> t -> t
(** The C kernel, at any size. *)

val karatsuba_words : int
(** The kernel's Karatsuba threshold, in 64-bit words. *)

(** {1 Comparison} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_zero : t -> bool

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val succ : t -> t
val pred : t -> t

val add_int : t -> int -> t
val mul_int : t -> int -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r], [0 <= r < |b|]
    (Euclidean division). @raise Division_by_zero when [b] is zero. *)

val div : t -> t -> t

val divmod_int : t -> int -> t * int
(** Euclidean division by a positive native int [< 2^31].
    @raise Invalid_argument when the divisor is out of range. *)

val pow : t -> int -> t
(** [pow x n] for [n >= 0]. *)

(** {1 Bit operations} *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t
(** Arithmetic shift of the magnitude (sign preserved). *)

val num_bits : t -> int
(** Bit length of the absolute value; [num_bits zero = 0]. *)

val testbit : t -> int -> bool
(** [testbit x i] is bit [i] of the absolute value. *)

val is_even : t -> bool
val is_odd : t -> bool

(** {1 Modular arithmetic} *)

val erem : t -> t -> t
(** [erem a m] is the least non-negative residue of [a] modulo [|m|]. *)

val mod_mul : t -> t -> t -> t

(** Precomputed per-modulus Montgomery state for exponentiation modulo
    one odd modulus, the only modular exponentiation there is: a caller
    that raises modulo one modulus repeatedly keeps its context.
    [create] derives the word inverse, [R mod m] and [R² mod m] in one
    kernel call with no division. Every walk over an
    exponent runs on one C kernel ([mont_stubs.c]): fused
    multiply-reduce and square-reduce steps and modular additions over
    [n = ⌈bits(m)/64⌉] 64-bit words, so [R = 2^(64n)]. Its working
    values (a ladder's accumulator and window table, a Lucas ladder's
    terms, a pair's buckets) live in a per-domain state string, and
    OCaml drives each walk in kernel calls of at most 256 exponent bits,
    so no call holds the runtime for long. A context is immutable after
    [create] and safe to share across domains. *)
module Mont : sig
  type ctx

  val create : t -> ctx
  (** @raise Invalid_argument when the modulus is even or [<= 1]. *)

  val modulus : ctx -> t

  val pow : ctx -> t -> t -> t
  (** [pow c b e] is [b^e mod (modulus c)] for [e >= 0], by
      a sliding-window ladder (windows of up to 7 bits over a table of
      the base's odd powers).
      @raise Invalid_argument on a negative exponent. *)

  val pow2 : ctx -> t -> t -> t -> t * t
  (** [pow2 c b e1 e2] is [(pow c b e1, pow c b e2)], computed from one
      squaring chain [b^(2^(w·i))] shared by both exponents, with each
      exponent's [w]-bit digits bucketed and folded
      (Brickell–Gordon–McCurley–Wilson digits, Yao's running product):
      about [max(|e1|, |e2|)] squarings plus [(|e1| + |e2|)/w + 2^(w+2)]
      products, against [|e1| + |e2|] squarings for two ladders. [w]
      minimises that count for the longer exponent: 2 bits up to 48,
      one more above each [w(w+1)·2^(w+1)] bits, 10 above 92,160.
      @raise Invalid_argument on a negative exponent. *)

  (** {2 Primality kernels}

      The two halves of the Baillie–PSW test, on a context whose odd
      modulus [n >= 3] is the candidate. *)

  val strong_test : ctx -> base:t -> bool
  (** Strong probable-prime test of [n] to [base]: writing
      [n - 1 = 2^s·d] with [d] odd, [n] passes when [base^d ≡ 1] or
      [base^(d·2^r) ≡ -1] for some [r < s]. Base 2 runs on squarings and
      modular doublings; any other base on the ladder of {!pow}. *)

  val lucas : ctx -> q:int -> t -> t * t * t * bool
  (** [lucas c ~q e] is [(V_e, V_(e+1), Q^e, u_zero)] modulo [n] for the
      Lucas sequences with [P = 1] and the given small [Q]
      ([V_0 = 2], [V_1 = 1], [V_(j+1) = V_j - Q·V_(j-1)]), by the
      V-only doubling ladder of {!strong_lucas}: one product and one
      squaring per index bit, plus a squaring of [Q^j] when [|Q| > 1].
      [u_zero] is [2·V_(e+1) ≡ V_e], that is [D·U_e ≡ 0] for
      [D = 1 - 4Q]: [U_e ≡ 0] whenever [D] is prime to [n].
      @raise Invalid_argument on a negative index. *)

  val strong_lucas : ctx -> q:int -> bool
  (** Strong Lucas probable-prime test with [P = 1], [Q = q], for a
      [Q] whose [D = 1 - 4Q] has Jacobi symbol [(D/n) = -1]: writing
      [n + 1 = 2^s·d] with [d] odd, [n] passes when [U_d ≡ 0] or
      [V_(d·2^r) ≡ 0] for some [r < s]. *)
end

val residues : t -> int array -> int array
(** [residues x ps] is [|x| mod p] for each [p] of [ps], in one kernel
    call with no allocation but the result.
    @raise Invalid_argument unless every [p] is in [(0, 2^31)]. *)

val first_divisor : t -> int array -> int
(** [first_divisor x ps] is the index of the first [p] of [ps] that
    divides [|x|], or [Array.length ps] when none does: trial division
    in one kernel call.
    @raise Invalid_argument unless every [p] is in [(0, 2^31)]. *)

val gcd : t -> t -> t

val egcd : t -> t -> t * t * t
(** [egcd a b] is [(g, x, y)] with [a*x + b*y = g = gcd a b], [g >= 0]. *)

val mod_inv : t -> t -> t option
(** [mod_inv a m] is the inverse of [a] modulo [m], when it exists. *)
