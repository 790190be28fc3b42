(** Byte-string helpers shared by the crypto substrate. *)

val to_hex : string -> string
(** Lowercase hexadecimal rendering of a byte string. *)

val of_hex : string -> string
(** Inverse of {!to_hex}. @raise Invalid_argument on malformed input. *)

val xor : string -> string -> string
(** Bytewise XOR. @raise Invalid_argument on length mismatch. *)

val const_equal : string -> string -> bool
(** Constant-time equality for equal-length strings (also compares
    lengths, returning [false] on mismatch without early exit). *)

val be32 : int -> string
(** 4-byte big-endian encoding of the low 32 bits. *)

val be64 : int -> string
(** 8-byte big-endian encoding. *)

val concat : string list -> string
(** Length-prefixed concatenation: each piece is preceded by its 4-byte
    big-endian length, so distinct piece lists never collide. Used for
    every [a||b] concatenation in the protocol. *)

val split : string -> string list option
(** Inverse of {!concat}; [None] when the input is not a valid
    encoding. *)

val get_be32 : string -> int -> int
(** The unsigned 4-byte big-endian integer at an offset: a {!concat}
    length prefix. *)

val fold_pieces : string -> off:int -> len:int -> ('a -> int -> int -> 'a) -> 'a -> 'a option
(** [fold_pieces s ~off ~len f init] folds [f] over the pieces of the
    {!concat} encoding in [s.[off, off + len)], in order, passing each
    piece's offset in [s] and its length, and allocates nothing of its
    own per piece. [None] when those bytes are not a valid encoding or
    the range lies outside the string. *)

val views : string -> off:int -> len:int -> (int * int) list option
(** {!split} of the bytes [\[off, off + len)] of a string, without
    copying them: each piece as its offset in the string and its
    length. [None] when those bytes are not a valid encoding or the
    range lies outside the string. *)

(** {2 Streamed encodings}

    A nested {!concat} (pieces that are themselves concatenations)
    copies each inner level into the next. A [sized] encoding knows its
    length up front and emits its bytes, in order, as
    [(string, offset, length)] pieces into a sink: into one buffer of
    the exact size ({!sized_to_string}), or straight to a destination
    such as a log file, with no buffer of the whole encoding at all.
    Emitting is repeatable: every call emits the same pieces, so a
    writer may take one pass to checksum and a second to write. *)

type sink = string -> int -> int -> unit
(** [sink s off len] receives the bytes [\[off, off + len)] of [s]. It
    must consume them before it returns. *)

type sized = { size : int; emit : sink -> unit }

val sized_string : string -> sized

val sized_cat : string list -> sized
(** The pieces back to back, with no length prefixes
    ([String.concat ""]). *)

val sized_concat : sized list -> sized
(** The {!concat} encoding of the pieces. *)

val sized_to_string : sized -> string
(** The emitted bytes in one buffer of the exact size.
    @raise Invalid_argument when the pieces do not add up to [size]. *)
