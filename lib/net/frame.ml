type msg = { tag : int; payload : string }

type error =
  | Closed
  | Timeout
  | Bad_magic
  | Bad_version of int
  | Oversized of int
  | Truncated
  | Bad_checksum

let error_to_string = function
  | Closed -> "connection closed"
  | Timeout -> "read timeout"
  | Bad_magic -> "bad frame magic"
  | Bad_version v -> Printf.sprintf "unsupported frame version %d" v
  | Oversized n -> Printf.sprintf "frame payload of %d bytes exceeds the limit" n
  | Truncated -> "truncated frame"
  | Bad_checksum -> "frame checksum mismatch"

(* Live-transport traffic counters (the pure [encode]/[decode] codecs
   used by offline tests do not count). The reject counter is shared by
   name with the server's unparseable-request path. *)
let c_frames_out = Obs.counter ~help:"frames written to sockets" "slicer_net_frames_out_total"
let c_bytes_out = Obs.counter ~help:"bytes written to sockets" "slicer_net_bytes_out_total"
let c_frames_in = Obs.counter ~help:"frames read from sockets" "slicer_net_frames_in_total"
let c_bytes_in = Obs.counter ~help:"bytes read from sockets" "slicer_net_bytes_in_total"

let c_rejects =
  Obs.counter ~help:"malformed frames and requests rejected" "slicer_net_decode_rejects_total"

let magic = "SLNP"
let version = 1
let header_bytes = 18
let checksum_bytes = 8
let default_max_payload = 16 * 1024 * 1024

(* Checksum input: every header field after the magic, then the payload,
   so a bit flip anywhere in (version | tag | length | payload) — or in
   the stored checksum itself — fails verification. Both are hashed
   where they lie: (version | tag | length) sit contiguously at offset 4
   of the header in [hdr], the payload at [off] in [body] (the same
   buffer, in a whole frame). *)
let checksum hdr hdr_off body off len =
  let ctx = Sha256.init () in
  Sha256.update_sub ctx hdr (hdr_off + 4) 6;
  Sha256.update_sub ctx body off len;
  Sha256.finalize_trunc ctx checksum_bytes

(* The one encoder. Header, payload and checksum go into one buffer of
   the exact size, the payload written in place by [write]; the
   checksum hashes the buffer's own header and payload bytes. *)
let encode_with ~tag len write =
  if tag < 0 || tag > 255 then invalid_arg "Frame.encode: tag out of range";
  if len < 0 || len > default_max_payload then invalid_arg "Frame.encode: payload too large";
  let b = Bytes.create (header_bytes + len) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_uint8 b 4 version;
  Bytes.set_uint8 b 5 tag;
  Bytes.set_int32_be b 6 (Int32.of_int len);
  write b header_bytes;
  Bytes.blit_string (checksum b 0 b header_bytes len) 0 b 10 checksum_bytes;
  Bytes.unsafe_to_string b

(* A streamed payload's pieces, in one pass. *)
let encode_sized ~tag (payload : Bytesutil.sized) =
  let len = payload.Bytesutil.size in
  encode_with ~tag len (fun b start ->
      let at = ref start in
      payload.Bytesutil.emit (fun s off n ->
          Bytes.blit_string s off b !at n;
          at := !at + n);
      if !at <> start + len then invalid_arg "Frame.encode: emitted size mismatch")

let encode ~tag payload = encode_sized ~tag (Bytesutil.sized_string payload)

let magic_word = String.get_int32_be magic 0

(* The one frame check, shared by [decode], [Decoder.next] and [read]:
   each gets the header's bytes its own way and calls [header], then
   gets the payload's and calls [verified]. [header] checks the header
   at [off] in [hdr] (magic, version, the length bound) and returns its
   tag and payload length. *)
let header ~max_payload hdr off =
  if not (Int32.equal (Bytes.get_int32_be hdr off) magic_word) then Error Bad_magic
  else begin
    let ver = Bytes.get_uint8 hdr (off + 4) in
    if ver <> version then Error (Bad_version ver)
    else begin
      let len = Int32.to_int (Bytes.get_int32_be hdr (off + 6)) land 0xffffffff in
      if len > max_payload then Error (Oversized len)
      else Ok (Bytes.get_uint8 hdr (off + 5), len)
    end
  end

(* The checksum stored in the header at [off] in [hdr] against the
   one computed over the [len]-byte payload at [body_off] in [body],
   compared in constant time like [Bytesutil.const_equal] without
   extracting the stored bytes first. *)
let verified hdr off body body_off len =
  let digest = checksum hdr off body body_off len in
  let acc = ref 0 in
  for i = 0 to checksum_bytes - 1 do
    acc := !acc lor (Char.code (Bytes.get hdr (off + 10 + i)) lxor Char.code digest.[i])
  done;
  !acc = 0

let decode ?(max_payload = default_max_payload) ?(off = 0) s =
  (* Read only: the header and checksum are read from [s] in place. *)
  let b = Bytes.unsafe_of_string s in
  let avail = String.length s - off in
  if avail < header_bytes then Error Truncated
  else
    match header ~max_payload b off with
    | Error _ as e -> e
    | Ok (tag, len) ->
      if avail < header_bytes + len then Error Truncated
      else if not (verified b off b (off + header_bytes) len) then Error Bad_checksum
      else Ok ({ tag; payload = String.sub s (off + header_bytes) len }, off + header_bytes + len)

(* --- incremental decoder ------------------------------------------------- *)

(* The event loop's per-connection arena: the socket reads straight
   into [buf] at the write cursor, [next] parses frames in place at the
   read cursor and yields views into the same bytes, and the typed codec
   decodes a request from its view ({!Wire.decode_request_at}), so no
   payload is copied on the receive path. Checksums are verified over
   the arena slices in place ([checksum]), so verification allocates
   nothing but the context. *)
module Decoder = struct
  type t = {
    mutable buf : Bytes.t;
    mutable r : int; (* start of unparsed bytes *)
    mutable w : int; (* end of buffered bytes *)
    mutable frames : int;
  }

  type view = { v_tag : int; v_buf : Bytes.t; v_off : int; v_len : int }

  let initial_capacity = 4096
  let idle_capacity = 64 * 1024

  let create () = { buf = Bytes.create initial_capacity; r = 0; w = 0; frames = 0 }

  let buffered t = t.w - t.r
  let frames t = t.frames
  let buffer t = t.buf

  (* All parsed bytes consumed: rewind, and give an arena a large frame
     once ballooned back to the GC (a thousand idle connections must
     not pin a thousand 16 MiB buffers). A view handed out before keeps
     the old arena alive for as long as it is read. *)
  let reset_empty t =
    t.r <- 0;
    t.w <- 0;
    if Bytes.length t.buf > idle_capacity then t.buf <- Bytes.create initial_capacity

  (* Where the frame at the read cursor ends in the arena, when its
     header is buffered, valid, and declares more bytes than are
     buffered: the arena never needs to grow past it. *)
  let frame_end t =
    if buffered t < header_bytes then None
    else
      match header ~max_payload:default_max_payload t.buf t.r with
      | Ok (_, len) when header_bytes + len > buffered t -> Some (t.r + header_bytes + len)
      | Ok _ | Error _ -> None

  (* Make at least [n] contiguous free bytes available at the write
     cursor: slide the unparsed tail down first (cheap bookkeeping, not
     a payload copy — the bytes have not been parsed yet), grow only
     when the frame truly needs more room. Growth doubles the arena,
     so its size follows the bytes received, but stops at the end of
     the partial frame at the read cursor: a frame of 536,976 bytes
     ends in an arena of that size, not in the next power of two. *)
  let ensure_space t n =
    if Bytes.length t.buf - t.w < n then begin
      let used = buffered t in
      if t.r > 0 then begin
        Bytes.blit t.buf t.r t.buf 0 used;
        t.r <- 0;
        t.w <- used
      end;
      if Bytes.length t.buf - t.w < n then begin
        let cap = Stdlib.max (2 * Bytes.length t.buf) (t.w + n) in
        let cap =
          match frame_end t with Some e -> Stdlib.min cap e | None -> cap
        in
        let cap = Stdlib.min cap (header_bytes + default_max_payload) in
        let nb = Bytes.create (Stdlib.max cap (t.w + n)) in
        Bytes.blit t.buf 0 nb 0 t.w;
        t.buf <- nb
      end
    end

  (* A socket read asks for [n] bytes but needs no more than the
     partial frame lacks. *)
  let space t n =
    let n = match frame_end t with Some e -> Stdlib.min n (e - t.w) | None -> n in
    ensure_space t n;
    (t.buf, t.w)

  let room t = Bytes.length t.buf - t.w

  let commit t n =
    if n < 0 || t.w + n > Bytes.length t.buf then invalid_arg "Decoder.commit";
    t.w <- t.w + n

  let feed t s =
    let n = String.length s in
    ensure_space t n;
    Bytes.blit_string s 0 t.buf t.w n;
    t.w <- t.w + n

  (* Parse one frame at the read cursor. [Ok None] = need more bytes. *)
  let next t =
    let avail = buffered t in
    if avail < header_bytes then begin
      if avail = 0 then reset_empty t;
      Ok None
    end
    else begin
      let b = t.buf and off = t.r in
      match header ~max_payload:default_max_payload b off with
      | Error _ as e -> e
      | Ok (_, len) when avail < header_bytes + len -> Ok None
      | Ok (tag, len) ->
        if not (verified b off b (off + header_bytes) len) then Error Bad_checksum
        else begin
          t.r <- off + header_bytes + len;
          t.frames <- t.frames + 1;
          if t.r = t.w then reset_empty t;
          Ok (Some { v_tag = tag; v_buf = b; v_off = off + header_bytes; v_len = len })
        end
    end
end

let write_frame fd frame =
  let total = String.length frame in
  let rec go off =
    if off < total then begin
      let n = Unix.write_substring fd frame off (total - off) in
      go (off + n)
    end
  in
  go 0;
  Obs.Counter.incr c_frames_out;
  Obs.Counter.add c_bytes_out total

let write fd ~tag payload = write_frame fd (encode ~tag payload)

(* Reads exactly [n] more bytes into [buf] at [off], respecting the
   absolute monotonic [deadline] (None = block indefinitely). *)
let read_exact fd buf off n deadline =
  let rec go off n =
    if n = 0 then Ok ()
    else begin
      let ready =
        match deadline with
        | None -> `Ready
        | Some d ->
          let remaining = d -. Obs.Clock.now () in
          if remaining <= 0. then `Expired
          else
            (* poll(2), not select: a process holding a thousand
               sockets still needs deadlines on fds >= FD_SETSIZE. *)
            (match Poll.wait_fd fd ~read:true ~write:false
                     ~timeout_ms:(Poll.ms_of_span remaining)
             with
             | 0 -> `Retry (* timeout tick; the deadline check loops *)
             | -1 -> `Retry (* EINTR *)
             | _ -> `Ready (* readable, or error the read will surface *)
             | exception Failure _ -> `Dead (* fd closed under us *))
      in
      match ready with
      | `Expired -> Error Timeout
      | `Dead -> Error Closed
      | `Retry -> go off n
      | `Ready ->
        (match Unix.read fd buf off n with
         | 0 -> Error (if off = 0 then Closed else Truncated)
         | k -> go (off + k) (n - k)
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off n
         | exception Unix.Unix_error _ -> Error Closed)
    end
  in
  go off n

let read_inner ?(max_payload = default_max_payload) ?timeout fd =
  (* Deadlines are monotonic-clock absolute: an NTP step must not fire
     (or indefinitely defer) an in-flight read timeout. *)
  let deadline = Option.map (fun t -> Obs.Clock.now () +. t) timeout in
  let hdr = Bytes.create header_bytes in
  match read_exact fd hdr 0 header_bytes deadline with
  | Error e -> Error e
  | Ok () ->
    (match header ~max_payload hdr 0 with
     | Error e -> Error e
     | Ok (tag, len) ->
       let payload = Bytes.create len in
       (match read_exact fd payload 0 len deadline with
        | Error Closed -> Error Truncated
        | Error e -> Error e
        | Ok () ->
          if not (verified hdr 0 payload 0 len) then Error Bad_checksum
          else
            (* [payload] is fresh and never written again. *)
            Ok { tag; payload = Bytes.unsafe_to_string payload }))

let read ?max_payload ?timeout fd =
  match read_inner ?max_payload ?timeout fd with
  | Ok msg as r ->
    Obs.Counter.incr c_frames_in;
    Obs.Counter.add c_bytes_in (header_bytes + String.length msg.payload);
    r
  | Error (Closed | Timeout) as r -> r
  | Error _ as r ->
    (* Malformed framing, not a quiet peer: line noise, a dialect
       mismatch or tampering. *)
    Obs.Counter.incr c_rejects;
    r
