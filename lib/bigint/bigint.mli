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

val pp : Format.formatter -> t -> unit

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
val min : t -> t -> t
val max : t -> t -> t

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
val rem : t -> t -> t

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

val mod_add : t -> t -> t -> t
val mod_sub : t -> t -> t -> t
val mod_mul : t -> t -> t -> t

val mod_pow : t -> t -> t -> t
(** [mod_pow b e m] is [b^e mod m] for [e >= 0], [m > 1]. Uses Montgomery
    multiplication when [m] is odd. @raise Invalid_argument on negative
    exponent or modulus [<= 1]. *)

(** Precomputed per-modulus Montgomery state for repeated
    exponentiation with {e varying} bases modulo one odd modulus
    (complementing {!Fixed_base}, which fixes the base). [create]
    derives once what {!mod_pow} re-derives per call — the word inverse,
    [R mod m] and [R² mod m] — and converts bases into the Montgomery
    domain with one multiplication instead of a general division. Every
    product runs on one C kernel ([mont_stubs.c]): a fused multiply-reduce
    and a square-reduce over [n = ⌈bits(m)/64⌉] 64-bit words, so
    [R = 2^(64n)]. A context is immutable after [create] and safe to
    share across domains. *)
module Mont : sig
  type ctx

  val create : t -> ctx
  (** @raise Invalid_argument when the modulus is even or [<= 1]. *)

  val modulus : ctx -> t

  val pow : ctx -> t -> t -> t
  (** [pow c b e] is exactly [mod_pow b e (modulus c)] for [e >= 0].
      @raise Invalid_argument on a negative exponent. *)

  (** {2 The Montgomery domain}

      A residue [x] held as [x·R mod m], for callers that chain several
      products before they compare: squarings and additions stay in the
      domain, and equality there is equality of the residues. *)

  type elt

  val to_mont : ctx -> t -> elt
  val of_mont : ctx -> elt -> t

  val pow_mont : ctx -> t -> t -> elt
  (** [pow_mont c b e] is [to_mont c (pow c b e)], without leaving the
      domain. *)

  val sqr : ctx -> elt -> elt
  val add : ctx -> elt -> elt -> elt
  val sub : ctx -> elt -> elt -> elt
  val equal : elt -> elt -> bool

  val lucas : ctx -> q:int -> t -> elt * elt * elt
  (** [lucas c ~q e] is [(U_e, V_e, Q^e)] modulo [modulus c], in the
      Montgomery domain, for the Lucas sequences with [P = 1] and the
      given [Q] ([U_0 = 0], [U_1 = 1], [V_0 = 2], [V_1 = 1],
      [X_(j+1) = X_j - Q·X_(j-1)]), by a doubling ladder over the bits
      of [e] on the same kernel as {!pow}: the strong Lucas half of the
      Baillie–PSW primality test.
      @raise Invalid_argument on a negative index. *)
end

val gcd : t -> t -> t

val egcd : t -> t -> t * t * t
(** [egcd a b] is [(g, x, y)] with [a*x + b*y = g = gcd a b], [g >= 0]. *)

val mod_inv : t -> t -> t option
(** [mod_inv a m] is the inverse of [a] modulo [m], when it exists. *)

(** {1 Fixed-base exponentiation}

    Repeated exponentiation of one base (the accumulator generator [g],
    or an accumulation value [Ac]) modulo one modulus, by fixed-base
    windowing (Brickell-Gordon-McCurley-Wilson, 8-bit windows). A chain
    of anchors [base^(2^(8·i))] is grown lazily and cached; an
    exponent's byte digits then select anchors whose bucketed products
    give the answer in roughly [bits/8] multiplications — versus [bits]
    squarings for a ladder — once the chain exists. Digit segments are
    independent tasks a domain pool can run in parallel. Thread-safe;
    results are exactly [mod_pow base e modulus] regardless of
    segmentation or the [run] hook. *)
module Fixed_base : sig
  type powers
  (** Cached anchor chain for one (base, modulus) pair. Memory is one
      group element per 8 exponent bits covered. *)

  val create : ?chunk_bits:int -> modulus:t -> t -> powers
  (** [create ~modulus base]. [chunk_bits] (default 32768) sets the
      segment granularity handed to the pool, not the window. The chain
      extends itself on demand; extension cost is one squaring per bit,
      paid once and amortized over all later {!pow} calls. *)

  val base : powers -> t
  val modulus : powers -> t
  val chunk_bits : powers -> int

  val ready : powers -> t -> bool
  (** Whether the anchor chain already covers exponent [e], i.e. {!pow}
      would pay no extension cost. Growing the chain costs one squaring
      per bit of new coverage — as much as one direct exponentiation —
      so sequential callers consult this before investing. *)

  val pow : ?run:((unit -> t) array -> t array) -> powers -> t -> t
  (** [pow fb e] is [mod_pow (base fb) e (modulus fb)] for [e >= 0],
      computed as independent digit-segment aggregations of
      [chunk_bits] exponent bits each. [~run] evaluates the segment
      thunks — pass [Parallel.Pool.run_all pool] to spread them across
      domains; the default evaluates sequentially. The combine order is
      fixed (ascending segment index), so the result is identical
      either way.
      @raise Invalid_argument on a negative exponent. *)
end
