(** Deterministic random bit generator in the style of NIST SP 800-90A
    HMAC-DRBG. Every random choice in the library (trapdoors, keys, RSA
    prime search, workload generation) draws from a [Drbg.t] so that runs
    are reproducible. *)

type t

val create : seed:string -> t
(** Deterministic instance from an arbitrary seed string. *)

val generate : t -> int -> string
(** [generate t n] produces [n] fresh pseudo-random bytes. *)

val reseed : t -> string -> unit
(** Mixes additional input into the state. *)

val uniform_int : t -> int -> int
(** [uniform_int t bound] is uniform in [\[0, bound)] via rejection
    sampling. @raise Invalid_argument when [bound <= 0]. *)

val uniform_bigint : t -> Bigint.t -> Bigint.t
(** Uniform in [\[0, bound)] for a positive bigint bound. *)

val bits : t -> int -> Bigint.t
(** [bits t n] is a uniform [n]-bit integer with the top bit set
    (so exactly [n] significant bits), for [n >= 1]. *)
