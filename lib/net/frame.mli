(** Length-prefixed, versioned, checksummed message framing — the
    lowest layer of the Slicer wire protocol.

    Layout (18-byte header, big-endian):
    {v
      0   4  magic "SLNP"
      4   1  version (currently 1)
      5   1  message tag
      6   4  payload length
      10  8  checksum: SHA-256 (version ‖ tag ‖ length ‖ payload), first 8 bytes
      18  n  payload
    v}

    The checksum covers every header field after the magic plus the
    whole payload, so {e any} single corrupted bit — in the tag, the
    length, the checksum itself or the body — fails decoding; nothing
    misparses. Truncated input is reported as [Truncated] (a socket
    reader treats it as "need more bytes"), and a declared length above
    the reader's limit is rejected as [Oversized] before any payload is
    read, so a hostile peer cannot make the server buffer gigabytes. *)

type msg = { tag : int; payload : string }

type error =
  | Closed            (** peer closed before a full frame arrived *)
  | Timeout           (** read deadline expired *)
  | Bad_magic
  | Bad_version of int
  | Oversized of int  (** declared payload length exceeds the limit *)
  | Truncated         (** input ends inside the header or payload *)
  | Bad_checksum

val error_to_string : error -> string

val header_bytes : int
val default_max_payload : int
(** 16 MiB — generous for every protocol message (the largest are
    Build shipments). *)

val encode : tag:int -> string -> string
(** A complete frame. @raise Invalid_argument when the tag is outside
    [0, 255] or the payload exceeds {!default_max_payload}. *)

val encode_with : tag:int -> int -> (Bytes.t -> int -> unit) -> string
(** [encode_with ~tag len write] is the frame of a [len]-byte payload
    that [write b off] puts at [off] of the frame's own buffer [b], so
    the payload is written once, in place, whatever holds it. [write]
    must fill exactly [b.[off .. off + len - 1]]. @raise
    Invalid_argument as {!encode} does. *)

val encode_sized : tag:int -> Bytesutil.sized -> string
(** The frame of a streamed payload, written in one pass: the header,
    the emitted pieces and the checksum go into one buffer of the exact
    size, so no copy of the payload is made on the way.
    [encode_sized ~tag p] equals
    [encode ~tag (Bytesutil.sized_to_string p)]. @raise Invalid_argument
    as {!encode} does, or when the pieces do not add up to the size. *)

val decode : ?max_payload:int -> ?off:int -> string -> (msg * int, error) result
(** Pure decoder: parses one frame starting at [off] (default 0) and
    returns it with the offset just past it. Never raises on malformed
    input. *)

(** Incremental, zero-copy streaming decoder — the event-loop server's
    per-connection receive path. The socket reads {e directly} into the
    decoder's arena ({!Decoder.space} / {!Decoder.commit}), and
    {!Decoder.next} parses frames in place, verifying the checksum by
    streaming arena slices through SHA-256 and yielding {!Decoder.view}s
    that alias the arena. The typed codec decodes a request straight from
    its view ({!Wire.decode_request_at}), so no payload copy exists
    anywhere on the path.

    The arena grows by doubling, so its size follows the bytes received
    (an idle connection keeps 4 KiB), but never past the end of the
    partial frame whose header it holds: a 536,976-byte frame ends in
    an arena of 536,976 bytes, never above twice the bytes fed. Once
    every buffered byte is parsed, an arena past 64 KiB is dropped for a
    fresh 4 KiB one. *)
module Decoder : sig
  type t

  type view = {
    v_tag : int;
    v_buf : Bytes.t;  (** aliases the arena — do not mutate *)
    v_off : int;
    v_len : int;
  }
  (** Valid until the next call that feeds this decoder: {!space} may
      slide unparsed bytes over a parsed frame. A server that neither
      reads nor parses a connection while its request is in the pool
      ([Net.Server]) can hand the view itself to the worker. *)

  val create : unit -> t
  (** An empty 4 KiB arena for frames of up to {!default_max_payload}
      bytes. *)

  val space : t -> int -> Bytes.t * int
  (** [space t n] returns the arena and write offset with at least [n]
      contiguous free bytes, or all the bytes the partial frame at the
      read cursor still lacks when that is fewer — read the socket
      straight into it, then {!commit} what arrived. May slide unparsed
      bytes down or grow the arena (bounded by the 18-byte header +
      {!default_max_payload}, and by the partial frame's end). *)

  val room : t -> int
  (** Free bytes after the write offset of the last {!space} call. *)

  val commit : t -> int -> unit
  (** Account [n] bytes written into the arena by the caller. *)

  val feed : t -> string -> unit
  (** Copy-in convenience for tests and non-socket feeds. *)

  val next : t -> (view option, error) result
  (** Parse one frame at the read cursor. [Ok None] means the buffered
      bytes end inside a header or payload — feed more. Errors are
      sticky in practice: after [Bad_magic]/[Bad_checksum] the stream
      cannot be resynchronized and the connection should close. *)

  val buffered : t -> int
  (** Unparsed bytes currently buffered (> 0 mid-frame). *)

  val buffer : t -> Bytes.t
  (** The live arena (for aliasing and size assertions in tests). *)

  val frames : t -> int
  (** Complete frames parsed. *)
end

val write : Unix.file_descr -> tag:int -> string -> unit
(** Writes a whole frame (handles short writes).
    @raise Unix.Unix_error on transport failure. *)

val write_frame : Unix.file_descr -> string -> unit
(** Writes a frame already built by {!encode} or {!encode_sized}, as
    {!write} does. *)

val read :
  ?max_payload:int -> ?timeout:float -> Unix.file_descr -> (msg, error) result
(** Reads exactly one frame. [timeout] (seconds, default none) bounds
    the {e whole} frame, enforced with [select] before every chunk — a
    peer trickling bytes cannot hold the connection open past the
    deadline. Transport errors surface as [Closed]. *)
