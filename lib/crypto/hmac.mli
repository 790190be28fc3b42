(** HMAC-SHA256 (RFC 2104) and the truncated-to-128-bit variant the paper
    calls "HMAC-128", used as the secure PRFs [F] and [G].

    For hot paths that evaluate many messages under one key, build a
    {!keyed} context once: it absorbs the ipad/opad key blocks a single
    time, removing two of the four SHA-256 compressions (and every
    intermediate concatenation allocation) from each subsequent call. *)

type keyed
(** A PRF context bound to one key. Immutable after {!create} — safe to
    share across domains; each evaluation clones the underlying hash
    states. *)

val create : key:string -> keyed

val sha256_keyed : keyed -> string -> string
(** 32-byte HMAC-SHA256 tag under the context's key. *)

val prf128_keyed : keyed -> string -> string
(** {!sha256_keyed} truncated to 16 bytes. *)

val sha256 : key:string -> string -> string
(** One-shot 32-byte HMAC-SHA256 tag (thin wrapper over a throwaway
    {!keyed} context). *)

val prf128 : key:string -> string -> string
(** HMAC-SHA256 truncated to 16 bytes — the PRF
    [F : {0,1}^λ × {0,1}^* → {0,1}^128] of the paper. *)
