(** RSA trapdoor permutation — the forward-security engine of the
    protocol (after Bost's Σoφoς).

    The data owner advances a keyword's trapdoor with the *inverse*
    direction [π_sk^{-1}] on every insertion; the cloud walks the chain
    *backwards* with the public direction [π_pk]. A cloud holding only
    [pk] cannot compute future trapdoors, so an insertion reveals nothing
    about whether the new entry matches past queries. *)

(** Each key carries its modulus's {!Bigint.Mont} context, built once
    with the key, so {!forward} and {!inverse} derive no Montgomery
    state per call. *)
type public = private { pn : Bigint.t; e : Bigint.t; pmont : Bigint.Mont.ctx }
type secret = private { sn : Bigint.t; d : Bigint.t; smont : Bigint.Mont.ctx }

val keygen : ?bits:int -> rng:Drbg.t -> unit -> public * secret
(** Fresh key pair; default 1024-bit modulus, [e = 65537]. *)

val public_of_parts : n:Bigint.t -> e:Bigint.t -> public
(** Reassembles a public key received over the wire (the owner → user
    provisioning channel). @raise Invalid_argument on degenerate
    parameters: a modulus that is even or at most 3, an exponent at
    most 1. *)

val forward : public -> Bigint.t -> Bigint.t
(** [π_pk(x) = x^e mod n]. *)

val inverse : secret -> Bigint.t -> Bigint.t
(** [π_sk^{-1}(x) = x^d mod n]. *)

val element_bytes : public -> int
(** Fixed serialization width for domain elements of this key. *)

val random_element : rng:Drbg.t -> public -> string
(** A fresh random trapdoor, serialized. *)

val forward_bytes : public -> string -> string
(** {!forward} on a serialized element. @raise Invalid_argument on a
    string that does not decode into the domain. *)

val inverse_bytes : secret -> public -> string -> string
(** {!inverse} on a serialized element. *)
