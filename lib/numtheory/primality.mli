(** Primality testing: randomized Miller-Rabin for key generation, and
    the deterministic Baillie–PSW test on which every party computing
    prime representatives must agree. *)

val mr_rounds : int
(** Default number of witness rounds (16): error probability below
    4^-16 per composite, ample for key generation. *)

val is_probable_prime : ?rounds:int -> rng:Drbg.t -> Bigint.t -> bool
(** Trial division by the small-prime table followed by [rounds]
    Miller-Rabin rounds with bases drawn from [rng]. Exact for inputs
    below the small-prime table bound. *)

val miller_rabin_base : Bigint.t -> base:Bigint.t -> bool
(** One Miller-Rabin (strong probable-prime) round with an explicit
    base on an odd [n > 1]; [true] means "probably prime with respect
    to this base". *)

val jacobi : int -> Bigint.t -> int
(** [jacobi d n] is the Jacobi symbol [(d/n)] for a small odd [d]
    ([|d| < 2^31]) and an odd [n > 0]: one single-limb division, then
    native-int reciprocity steps. *)

val is_square : Bigint.t -> bool
(** Whether [n] is a perfect square (Newton's integer square root). *)

val baillie_psw : Bigint.t -> bool
(** Baillie–PSW (Baillie & Wagstaff, "Lucas pseudoprimes", 1980): a
    base-2 strong probable-prime test, then a strong Lucas test with
    Selfridge's parameters (the first D of 5, -7, 9, -11, … with
    [(D/n) = -1]; P = 1; Q = (1 - D)/4), both in one Montgomery context.
    Deterministic and correct for every input: no composite passes
    below 2^64, and none is known above. Perfect squares, for which no
    such D exists, are rejected. *)
