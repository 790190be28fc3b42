let ( let* ) = Option.bind

(* --- shipments ----------------------------------------------------------- *)

(* A shipment is three pieces, [ac; groups; witnesses], and each group
   carries its G1 key, its prime and its entries: every entry is encoded
   once. The witnesses piece holds a Build's one witness per group, or
   nothing. The older forms (two pieces without witnesses; a flat entry
   list and prime list, then optionally the same entries again as
   groups) are malformed here.

   Entries travel as the length-prefixed pieces [l1; d1; l2; d2; ...],
   40 wire bytes per 32-byte [l ‖ d] record; the encoder emits them
   as views of the packed records and the decoder packs them back, one
   blit per piece. *)
let piece_len = 4 + Enc_index.label_len
let piece_prefix = Bytesutil.be32 Enc_index.label_len

let entries_sized records =
  let pieces = 2 * (String.length records / Enc_index.record_len) in
  { Bytesutil.size = pieces * piece_len;
    emit =
      (fun sink ->
        for i = 0 to pieces - 1 do
          sink piece_prefix 0 4;
          sink records (i * Enc_index.label_len) Enc_index.label_len
        done) }

(* Labels and payloads are both 16 bytes, so piece [i] of the wire form
   is bytes [16i, 16i + 16) of the packed records. Any other piece
   length, or an odd piece count, is malformed. *)
let entries_of_view s ~off ~len =
  if len mod (2 * piece_len) <> 0 then None
  else begin
    let pieces = len / piece_len in
    let b = Bytes.create (pieces * Enc_index.label_len) in
    let rec go i =
      if i = pieces then Some (Bytes.unsafe_to_string b)
      else begin
        let at = off + (i * piece_len) in
        if Bytesutil.get_be32 s at <> Enc_index.label_len then None
        else begin
          Bytes.blit_string s (at + 4) b (i * Enc_index.label_len) Enc_index.label_len;
          go (i + 1)
        end
      end
    in
    go 0
  end

let entries_to_bytes records = Bytesutil.sized_to_string (entries_sized records)
let entries_of_bytes s = entries_of_view s ~off:0 ~len:(String.length s)

let group_sized (g : Owner.keyword_group) =
  Bytesutil.sized_concat
    [ Bytesutil.sized_string g.Owner.kg_g1;
      Bytesutil.sized_string (Bigint.to_bytes_be g.Owner.kg_prime);
      entries_sized g.Owner.kg_entries ]

let group_to_bytes g = Bytesutil.sized_to_string (group_sized g)

let group_of_view s ~off ~len =
  match Bytesutil.views s ~off ~len with
  | Some [ (g1_off, g1_len); (prime_off, prime_len); (entries_off, entries_len) ] ->
    let* kg_entries = entries_of_view s ~off:entries_off ~len:entries_len in
    Some
      { Owner.kg_g1 = String.sub s g1_off g1_len;
        kg_entries;
        kg_prime = Bigint.of_bytes_be (String.sub s prime_off prime_len) }
  | _ -> None

let shipment_sized (sh : Owner.shipment) =
  Bytesutil.sized_concat
    [ Bytesutil.sized_string (Bigint.to_bytes_be sh.Owner.sh_ac);
      Bytesutil.sized_concat (List.map group_sized sh.Owner.sh_groups);
      Bytesutil.sized_concat
        (List.map (fun w -> Bytesutil.sized_string (Bigint.to_bytes_be w)) sh.Owner.sh_witnesses) ]

let shipment_to_bytes sh = Bytesutil.sized_to_string (shipment_sized sh)

let shipment_of_view s ~off ~len =
  let bigint (off, len) = Bigint.of_bytes_be (String.sub s off len) in
  match Bytesutil.views s ~off ~len with
  | Some [ ac; (groups_off, groups_len); (witnesses_off, witnesses_len) ] ->
    let* group_views = Bytesutil.views s ~off:groups_off ~len:groups_len in
    let* witness_views = Bytesutil.views s ~off:witnesses_off ~len:witnesses_len in
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | (off, len) :: rest ->
        let* g = group_of_view s ~off ~len in
        go (g :: acc) rest
    in
    let* sh_groups = go [] group_views in
    Some
      { Owner.sh_groups; sh_ac = bigint ac; sh_witnesses = List.map bigint witness_views }
  | _ -> None

let shipment_of_bytes s = shipment_of_view s ~off:0 ~len:(String.length s)

(* --- trapdoor state -------------------------------------------------------- *)

let trapdoor_state_sized (st : Owner.trapdoor_state) =
  let bindings =
    Hashtbl.fold (fun w (trapdoor, j) acc -> (w, trapdoor, j) :: acc) st []
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  Bytesutil.sized_concat
    (List.concat_map
       (fun (w, trapdoor, j) -> List.map Bytesutil.sized_string [ w; trapdoor; string_of_int j ])
       bindings)

let trapdoor_state_to_bytes st = Bytesutil.sized_to_string (trapdoor_state_sized st)

let trapdoor_state_of_bytes s =
  let* pieces = Bytesutil.split s in
  let st : Owner.trapdoor_state = Hashtbl.create (List.length pieces / 3) in
  let rec go = function
    | [] -> Some st
    | w :: trapdoor :: j :: rest ->
      let* j = int_of_string_opt j in
      if j < 0 then None
      else begin
        Hashtbl.replace st w (trapdoor, j);
        go rest
      end
    | _ -> None
  in
  go pieces

(* --- search tokens ----------------------------------------------------------- *)

let tokens_to_bytes ts = Bytesutil.concat (List.map Slicer_types.token_bytes ts)

let tokens_of_bytes s =
  let* pieces = Bytesutil.split s in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | p :: rest ->
      let* t = Slicer_types.token_of_bytes p in
      go (t :: acc) rest
  in
  go [] pieces

(* --- settlement receipts ----------------------------------------------------- *)

let receipt_to_bytes (r : Vm.receipt) =
  let output =
    match r.Vm.r_output with
    | Ok words -> Bytesutil.concat ("ok" :: words)
    | Error e -> Bytesutil.concat [ "error"; e ]
  in
  Bytesutil.concat
    [ r.Vm.r_txn_hash; string_of_int r.Vm.r_gas_used; Bytesutil.concat r.Vm.r_events; output ]

let receipt_of_bytes s =
  let* pieces = Bytesutil.split s in
  match pieces with
  | [ r_txn_hash; gas; events_blob; output_blob ] ->
    let* r_gas_used = int_of_string_opt gas in
    if r_gas_used < 0 then None
    else
      let* r_events = Bytesutil.split events_blob in
      let* output_pieces = Bytesutil.split output_blob in
      let* r_output =
        match output_pieces with
        | "ok" :: words -> Some (Ok words)
        | [ "error"; e ] -> Some (Error e)
        | _ -> None
      in
      Some { Vm.r_txn_hash; r_gas_used; r_events; r_output }
  | _ -> None

(* --- files ------------------------------------------------------------------ *)

(* Atomic + durable: bytes land in [path ^ ".tmp"], get fsynced, and
   only then rename over [path]; the parent directory is fsynced so
   the rename itself survives a crash. A reader therefore sees either
   the old file or the new one — never a half-written hybrid, which is
   exactly what the in-place [open_out_bin] this replaces produced
   when the process died mid-write. *)
let save ~path bytes =
  let tmp = path ^ ".tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let len = String.length bytes in
      let off = ref 0 in
      while !off < len do
        off := !off + Unix.write_substring fd bytes !off (len - !off)
      done;
      Unix.fsync fd);
  Unix.rename tmp path;
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | dfd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close dfd with Unix.Unix_error _ -> ())
      (fun () -> try Unix.fsync dfd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let load ~path =
  (* [None] on *any* read failure: [Sys_error] on open/read, but also
     [End_of_file] when the file shrinks between [in_channel_length]
     and the read — a window the old code let escape as an exception. *)
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | bytes -> Some bytes
  | exception (Sys_error _ | End_of_file) -> None
