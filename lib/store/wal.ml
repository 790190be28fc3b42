type event = { ev_seq : int; ev_tag : int; ev_payload : string }

type t = {
  fd : Unix.file_descr;
  fsync : bool;
  mutex : Mutex.t;
  scratch : Bytes.t; (* a record's bytes pass through here, under [mutex] *)
  cond : Condition.t;
  mutable next_seq : int;
  mutable written : int; (* bytes handed to write(2) *)
  mutable synced : int; (* bytes covered by a completed fsync *)
  mutable leader : bool; (* an fsync is in flight *)
  mutable epoch : int; (* bumped by [reset]: waiters whose bytes were
                          truncated away must stop waiting for them *)
  mutable closed : bool;
}

let get_be32 s pos =
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

let get_be64 s pos =
  let hi = get_be32 s pos and lo = get_be32 s (pos + 4) in
  (hi lsl 32) lor lo

let header_bytes = 8 (* len + crc *)
let body_overhead = 9 (* seq + tag *)
let scratch_bytes = 64 * 1024

(* Scan a raw log image. Stops — and reports the stop offset — at the
   first record that is torn (length overruns the file), corrupt (CRC
   mismatch, impossible length) or out of order (seq breaks the +1
   chain). Everything before the stop offset is a valid prefix. *)
let scan contents =
  let len = String.length contents in
  let events = ref [] in
  let pos = ref 0 in
  let prev_seq = ref None in
  let stop = ref false in
  while (not !stop) && !pos + header_bytes <= len do
    let body_len = get_be32 contents !pos in
    if body_len < body_overhead || !pos + header_bytes + body_len > len then
      stop := true
    else begin
      let crc = get_be32 contents (!pos + 4) in
      let body_pos = !pos + header_bytes in
      if Crc32.update 0 contents body_pos body_len <> crc then stop := true
      else begin
        let seq = get_be64 contents body_pos in
        let chained =
          match !prev_seq with None -> true | Some p -> seq = p + 1
        in
        if not chained then stop := true
        else begin
          let tag = Char.code contents.[body_pos + 8] in
          let payload =
            String.sub contents (body_pos + body_overhead)
              (body_len - body_overhead)
          in
          events := { ev_seq = seq; ev_tag = tag; ev_payload = payload } :: !events;
          prev_seq := Some seq;
          pos := !pos + header_bytes + body_len
        end
      end
    end
  done;
  (List.rev !events, !pos, !pos < len)

let read_all fd =
  let len = (Unix.fstat fd).Unix.st_size in
  let buf = Bytes.create len in
  let off = ref 0 in
  (try
     while !off < len do
       let n = Unix.read fd buf !off (len - !off) in
       if n = 0 then raise Exit;
       off := !off + n
     done
   with Exit -> ());
  if !off = len then Bytes.unsafe_to_string buf else Bytes.sub_string buf 0 !off

let open_ ~path ~fsync =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644 in
  let contents = read_all fd in
  let events, valid_len, dropped = scan contents in
  if dropped then begin
    Unix.ftruncate fd valid_len;
    if fsync then Unix.fsync fd
  end;
  ignore (Unix.lseek fd valid_len Unix.SEEK_SET);
  let next_seq =
    match List.rev events with [] -> 1 | last :: _ -> last.ev_seq + 1
  in
  let t =
    {
      fd;
      fsync;
      mutex = Mutex.create ();
      scratch = Bytes.create scratch_bytes;
      cond = Condition.create ();
      next_seq;
      written = valid_len;
      synced = (if fsync then 0 else valid_len);
      leader = false;
      epoch = 0;
      closed = false;
    }
  in
  (t, events, dropped)

(* [write] is [Unix.write] or [Unix.write_substring]. *)
let rec write_fully write fd buf off len =
  if len > 0 then begin
    let n = write fd buf off len in
    write_fully write fd buf (off + n) (len - n)
  end

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* A record is never whole in memory. The first emission of the
   payload computes the CRC over seq ‖ tag ‖ payload; the second
   streams header, prefix and payload through the scratch, which is
   written out whenever the next piece would overflow it. A piece as
   large as the scratch is written from where it lies. *)
let append_sized t ~tag (payload : Bytesutil.sized) =
  if tag < 0 || tag > 0xFF then invalid_arg "Wal.append: tag out of range";
  locked t (fun () ->
      if t.closed then invalid_arg "Wal.append: closed";
      let seq = t.next_seq in
      let prefix = Bytes.create body_overhead in
      Bytes.set_int64_be prefix 0 (Int64.of_int seq);
      Bytes.set_uint8 prefix 8 tag;
      let prefix = Bytes.unsafe_to_string prefix in
      let crc = ref (Crc32.string prefix) and emitted = ref 0 in
      payload.emit (fun s off len ->
          crc := Crc32.update !crc s off len;
          emitted := !emitted + len);
      if !emitted <> payload.size then invalid_arg "Wal.append: emitted size mismatch";
      let body_len = body_overhead + payload.size in
      let b = t.scratch in
      Bytes.set_int32_be b 0 (Int32.of_int body_len);
      Bytes.set_int32_be b 4 (Int32.of_int !crc);
      Bytes.blit_string prefix 0 b header_bytes body_overhead;
      let fill = ref (header_bytes + body_overhead) in
      let flush () =
        write_fully Unix.write t.fd b 0 !fill;
        fill := 0
      in
      payload.emit (fun s off len ->
          if !fill + len > scratch_bytes then flush ();
          if len >= scratch_bytes then write_fully Unix.write_substring t.fd s off len
          else begin
            Bytes.blit_string s off b !fill len;
            fill := !fill + len
          end);
      flush ();
      t.next_seq <- seq + 1;
      t.written <- t.written + header_bytes + body_len;
      seq)

let append t ~tag payload = append_sized t ~tag (Bytesutil.sized_string payload)

let sync t =
  if t.fsync then begin
    Mutex.lock t.mutex;
    let target = t.written and epoch0 = t.epoch in
    (* A [reset] (snapshot truncation) bumps the epoch: the bytes we
       were waiting on are covered by a durable snapshot instead, so
       waiting for them to hit the log would hang forever. *)
    while t.synced < target && t.epoch = epoch0 do
      if t.leader then Condition.wait t.cond t.mutex
      else begin
        (* Become the leader: one fsync covers every byte written
           before it started, so followers piling up behind us ride
           the same barrier. *)
        t.leader <- true;
        let upto = t.written and e = t.epoch in
        Mutex.unlock t.mutex;
        let result = try Ok (Unix.fsync t.fd) with exn -> Error exn in
        Mutex.lock t.mutex;
        t.leader <- false;
        (match result with
        | Ok () -> if t.epoch = e && upto > t.synced then t.synced <- upto
        | Error _ -> ());
        Condition.broadcast t.cond;
        match result with
        | Ok () -> ()
        | Error exn ->
          Mutex.unlock t.mutex;
          raise exn
      end
    done;
    Mutex.unlock t.mutex
  end

let reset t ~next_seq =
  locked t (fun () ->
      Unix.ftruncate t.fd 0;
      ignore (Unix.lseek t.fd 0 Unix.SEEK_SET);
      if t.fsync then Unix.fsync t.fd;
      t.written <- 0;
      t.synced <- 0;
      t.epoch <- t.epoch + 1;
      t.next_seq <- next_seq;
      Condition.broadcast t.cond)

let set_next_seq t seq = locked t (fun () -> t.next_seq <- seq)

let size t = locked t (fun () -> t.written)

let last_synced t = locked t (fun () -> t.synced)

let close t =
  locked t (fun () ->
      if not t.closed then begin
        t.closed <- true;
        Unix.close t.fd
      end)
