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

(* Constant-time compare of a stored checksum with a computed one —
   mirrors [Bytesutil.const_equal] without extracting the stored bytes
   first. *)
let checksum_matches buf off digest =
  let acc = ref 0 in
  for i = 0 to checksum_bytes - 1 do
    acc := !acc lor (Char.code (Bytes.get buf (off + i)) lxor Char.code digest.[i])
  done;
  !acc = 0

(* Header, checksum and payload in one buffer of the exact size; the
   checksum hashes the buffer's own header and payload bytes. *)
let encode_bytes ~tag payload =
  if tag < 0 || tag > 255 then invalid_arg "Frame.encode: tag out of range";
  let len = String.length payload in
  if len > default_max_payload then invalid_arg "Frame.encode: payload too large";
  let b = Bytes.create (header_bytes + len) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_uint8 b 4 version;
  Bytes.set_uint8 b 5 tag;
  Bytes.set_int32_be b 6 (Int32.of_int len);
  Bytes.blit_string payload 0 b header_bytes len;
  Bytes.blit_string (checksum b 0 b header_bytes len) 0 b 10 checksum_bytes;
  b

let encode ~tag payload = Bytes.unsafe_to_string (encode_bytes ~tag payload)

let be32_bytes b off =
  let g i = Char.code (Bytes.get b (off + i)) in
  (g 0 lsl 24) lor (g 1 lsl 16) lor (g 2 lsl 8) lor g 3

let decode ?(max_payload = default_max_payload) ?(off = 0) s =
  let avail = String.length s - off in
  if avail < header_bytes then Error Truncated
  else if String.sub s off 4 <> magic then Error Bad_magic
  else begin
    let ver = Char.code s.[off + 4] in
    if ver <> version then Error (Bad_version ver)
    else begin
      let tag = Char.code s.[off + 5] in
      (* Read only: the length and checksum are read from [s] in place. *)
      let b = Bytes.unsafe_of_string s in
      let len = be32_bytes b (off + 6) in
      if len > max_payload then Error (Oversized len)
      else if avail < header_bytes + len then Error Truncated
      else if not (checksum_matches b (off + 10) (checksum b off b (off + header_bytes) len))
      then Error Bad_checksum
      else Ok ({ tag; payload = String.sub s (off + header_bytes) len }, off + header_bytes + len)
    end
  end

(* --- incremental decoder ------------------------------------------------- *)

(* The event loop's per-connection arena: the socket reads straight
   into [buf] at the write cursor, [next] parses frames in place at the
   read cursor and yields views into the same bytes. The only payload
   copy on the whole receive path is the final [payload_string]
   extraction that hands the bytes to the typed codec — counted, so a
   test can assert the invariant. Checksums are verified over the
   arena slices in place ([checksum]), so verification allocates
   nothing but the context. *)
module Decoder = struct
  type t = {
    d_max_payload : int;
    mutable buf : Bytes.t;
    mutable r : int; (* start of unparsed bytes *)
    mutable w : int; (* end of buffered bytes *)
    mutable compactions : int;
    mutable extractions : int;
    mutable frames : int;
  }

  type view = { v_tag : int; v_buf : Bytes.t; v_off : int; v_len : int }

  let initial_capacity = 4096
  let idle_capacity = 64 * 1024

  let create ?(max_payload = default_max_payload) () =
    { d_max_payload = max_payload;
      buf = Bytes.create initial_capacity;
      r = 0;
      w = 0;
      compactions = 0;
      extractions = 0;
      frames = 0 }

  let buffered t = t.w - t.r
  let compactions t = t.compactions
  let extractions t = t.extractions
  let frames t = t.frames
  let buffer t = t.buf

  (* All parsed bytes consumed: rewind, and give an arena a large frame
     once ballooned back to the GC (a thousand idle connections must
     not pin a thousand 16 MiB buffers). *)
  let reset_empty t =
    t.r <- 0;
    t.w <- 0;
    if Bytes.length t.buf > idle_capacity then t.buf <- Bytes.create initial_capacity

  (* Make at least [n] contiguous free bytes available at the write
     cursor: slide the unparsed tail down first (cheap bookkeeping, not
     a payload copy — the bytes have not been parsed yet), grow only
     when the frame truly needs more room. *)
  let ensure_space t n =
    if Bytes.length t.buf - t.w < n then begin
      let used = buffered t in
      if t.r > 0 then begin
        Bytes.blit t.buf t.r t.buf 0 used;
        if used > 0 then t.compactions <- t.compactions + 1;
        t.r <- 0;
        t.w <- used
      end;
      if Bytes.length t.buf - t.w < n then begin
        let cap = max (2 * Bytes.length t.buf) (t.w + n) in
        let cap = Stdlib.min (Stdlib.max cap (t.w + n)) (header_bytes + t.d_max_payload) in
        let cap = Stdlib.max cap (t.w + n) in
        let nb = Bytes.create cap in
        Bytes.blit t.buf 0 nb 0 t.w;
        t.buf <- nb
      end
    end

  let space t n =
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
      if not
           (Bytes.get b off = magic.[0]
           && Bytes.get b (off + 1) = magic.[1]
           && Bytes.get b (off + 2) = magic.[2]
           && Bytes.get b (off + 3) = magic.[3])
      then Error Bad_magic
      else begin
        let ver = Char.code (Bytes.get b (off + 4)) in
        if ver <> version then Error (Bad_version ver)
        else begin
          let tag = Char.code (Bytes.get b (off + 5)) in
          let len = be32_bytes b (off + 6) in
          if len > t.d_max_payload then Error (Oversized len)
          else if avail < header_bytes + len then Ok None
          else begin
            if not (checksum_matches b (off + 10) (checksum b off b (off + header_bytes) len))
            then Error Bad_checksum
            else begin
              t.r <- off + header_bytes + len;
              t.frames <- t.frames + 1;
              if t.r = t.w then reset_empty t;
              Ok (Some { v_tag = tag; v_buf = b; v_off = off + header_bytes; v_len = len })
            end
          end
        end
      end
    end

  let payload_string t v =
    t.extractions <- t.extractions + 1;
    Bytes.sub_string v.v_buf v.v_off v.v_len
end

let write fd ~tag payload =
  let frame = encode_bytes ~tag payload in
  let total = Bytes.length frame in
  let rec go off =
    if off < total then begin
      let n = Unix.write fd frame off (total - off) in
      go (off + n)
    end
  in
  go 0;
  Obs.Counter.incr c_frames_out;
  Obs.Counter.add c_bytes_out total

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
            (* poll(2), not select: a client holding a thousand swarm
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
  let header = Bytes.create header_bytes in
  match read_exact fd header 0 header_bytes deadline with
  | Error e -> Error e
  | Ok () ->
    if Bytes.sub_string header 0 4 <> magic then Error Bad_magic
    else begin
      let ver = Bytes.get_uint8 header 4 in
      if ver <> version then Error (Bad_version ver)
      else begin
        let tag = Bytes.get_uint8 header 5 in
        let len = be32_bytes header 6 in
        if len > max_payload then Error (Oversized len)
        else begin
          let payload = Bytes.create len in
          match read_exact fd payload 0 len deadline with
          | Error Closed -> Error Truncated
          | Error e -> Error e
          | Ok () ->
            if not (checksum_matches header 10 (checksum header 0 payload 0 len)) then
              Error Bad_checksum
            else
              (* [payload] is fresh and never written again. *)
              Ok { tag; payload = Bytes.unsafe_to_string payload }
        end
      end
    end

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
