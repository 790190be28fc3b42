let magic = "SLSN1"
let keep_generations = 2

let path_of ~dir ~seq = Filename.concat dir (Printf.sprintf "snap-%d.bin" seq)

let seq_of_name name =
  match String.length name with
  | n when n > 9 && String.sub name 0 5 = "snap-" && String.sub name (n - 4) 4 = ".bin"
    ->
    int_of_string_opt (String.sub name 5 (n - 9))
  | _ -> None

let get_be32 s pos =
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

let write_fully fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

let header_bytes = 5 + 8 + 4 + 4 (* magic, seq, len, crc *)

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | dfd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close dfd with Unix.Unix_error _ -> ())
      (fun () -> try Unix.fsync dfd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let listing dir =
  match Sys.readdir dir with
  | names ->
    Array.to_list names
    |> List.filter_map (fun n ->
           match seq_of_name n with Some seq -> Some (seq, n) | None -> None)
    |> List.sort (fun (a, _) (b, _) -> compare b a)
  | exception Sys_error _ -> []

let prune ~dir =
  (* Stale .tmp files are debris from a crash mid-write: always gone. *)
  (match Sys.readdir dir with
  | names ->
    Array.iter
      (fun n ->
        if Filename.check_suffix n ".tmp" then
          try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
      names
  | exception Sys_error _ -> ());
  List.iteri
    (fun i (_, name) ->
      if i >= keep_generations then
        try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
    (listing dir)

(* The CRC runs over the header's seq field and then the payload where
   it lies, and the two are written one after the other: the payload is
   never copied. *)
let write ~dir ~seq ~fsync payload =
  let final = path_of ~dir ~seq in
  let tmp = final ^ ".tmp" in
  let len = String.length payload and seq_be = Bytesutil.be64 seq in
  let header = Bytes.create header_bytes in
  Bytes.blit_string magic 0 header 0 5;
  Bytes.blit_string seq_be 0 header 5 8;
  Bytes.set_int32_be header 13 (Int32.of_int len);
  Bytes.set_int32_be header 17 (Int32.of_int (Crc32.update (Crc32.string seq_be) payload 0 len));
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write_fully fd (Bytes.unsafe_to_string header);
      write_fully fd payload;
      if fsync then Unix.fsync fd);
  Unix.rename tmp final;
  if fsync then fsync_dir dir;
  prune ~dir

let load_one path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception (Sys_error _ | End_of_file) -> None
  | body ->
    let hdr = header_bytes in
    if String.length body < hdr || String.sub body 0 5 <> magic then None
    else begin
      let seq =
        let hi = get_be32 body 5 and lo = get_be32 body 9 in
        (hi lsl 32) lor lo
      in
      let len = get_be32 body 13 in
      let crc = get_be32 body 17 in
      if String.length body <> hdr + len then None
      else if Crc32.update (Crc32.update 0 body 5 8) body hdr len <> crc then None
      else Some (seq, String.sub body hdr len)
    end

let load_newest ~dir =
  let rec first = function
    | [] -> None
    | (_, name) :: rest -> (
      match load_one (Filename.concat dir name) with
      | Some r -> Some r
      | None -> first rest)
  in
  first (listing dir)

let wipe ~dir =
  List.iter
    (fun (_, name) -> try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
    (listing dir)
