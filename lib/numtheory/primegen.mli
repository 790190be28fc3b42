(** Prime generation: random primes, deterministic next-prime search and
    RSA modulus generation for the accumulator and trapdoor permutation. *)

val is_prime_det : Bigint.t -> bool
(** Deterministic primality: the sieve below its 8192 bound, otherwise
    small-prime trial division then {!Primality.baillie_psw}. Used
    where all parties must agree on a verdict without shared
    randomness; no composite passes below 2^64, and none is known
    above. *)

val next_prime : Bigint.t -> Bigint.t
(** Smallest prime [>= n] (by {!is_prime_det}), via an odd-candidate walk
    with small-prime trial division. *)

val random_prime : rng:Drbg.t -> bits:int -> Bigint.t
(** Uniform [bits]-bit probable prime (top bit set). Requires
    [bits >= 2]. *)

val random_safe_prime : rng:Drbg.t -> bits:int -> Bigint.t
(** Prime [p] with [(p-1)/2] also prime. Noticeably slower; provided for
    faithfulness to the paper's accumulator setup. *)

type rsa_modulus = {
  n : Bigint.t;   (** [p * q] *)
  p : Bigint.t;
  q : Bigint.t;
  phi : Bigint.t; (** [(p-1) * (q-1)] *)
}

val random_rsa_modulus : ?safe:bool -> rng:Drbg.t -> bits:int -> unit -> rsa_modulus
(** Generates a [bits]-bit RSA modulus from two random primes of
    [bits/2] bits each. [~safe:true] uses safe primes (slow). *)
