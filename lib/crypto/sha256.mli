(** SHA-256 (FIPS 180-4), implemented from scratch on 32-bit words held
    in native ints. Used for HMAC, the multiset hash base map, prime
    representatives and the blockchain's hashing.

    The compress kernel consumes whole blocks directly from the input
    string; only stream boundaries and the padded final block go through
    the context's 64-byte buffer. Contexts are cheap to {!copy}, so a
    partially-absorbed state (e.g. an HMAC key block) can be cloned per
    message instead of being recomputed.

    Every block compression adds one to the Obs counter
    [slicer_sha256_compressions_total]: a message of [n] bytes costs
    [n / 64 + 1] of them, plus one when [n mod 64 >= 56]. *)

type ctx
(** Streaming hash context (mutable). Not shared between domains; clone
    with {!copy} instead. *)

val init : unit -> ctx
val update : ctx -> string -> unit

val update_sub : ctx -> Bytes.t -> int -> int -> unit
(** [update_sub ctx b off len] absorbs [len] bytes of [b] starting at
    [off] without copying them out first — the zero-copy checksum path
    for framing buffers. @raise Invalid_argument on out-of-range
    slices. *)

val copy : ctx -> ctx
(** An independent snapshot of the state absorbed so far: updating or
    finalizing either context leaves the other untouched. *)

val finalize : ctx -> string
(** Returns the 32-byte digest. The context must not be reused. *)

val finalize_trunc : ctx -> int -> string
(** [finalize_trunc ctx n] returns the first [n] bytes (1..32) of the
    digest without allocating the full 32 bytes — the HMAC-128 path.
    The context must not be reused. *)

val digest : string -> string
(** One-shot 32-byte digest. *)

val digest_hex : string -> string
(** One-shot digest rendered as 64 lowercase hex characters. *)
