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

(* The encoders below emit each length prefix from one 4-byte scratch
   per emission ([prefix]), which every sink consumes before the next,
   and build no record per piece: the WAL streams a Build through them
   on the server. *)
let emit_prefix sink prefix n =
  Bytes.set_int32_be prefix 0 (Int32.of_int n);
  sink (Bytes.unsafe_to_string prefix) 0 4

let emit_piece sink prefix s =
  emit_prefix sink prefix (String.length s);
  sink s 0 (String.length s)

(* The length of [Bigint.to_bytes_be x]. *)
let bigint_len x = Stdlib.max 1 ((Bigint.num_bits x + 7) / 8)

let entries_len records = 2 * (String.length records / Enc_index.record_len) * piece_len

let emit_entries sink records =
  for i = 0 to (2 * (String.length records / Enc_index.record_len)) - 1 do
    sink piece_prefix 0 4;
    sink records (i * Enc_index.label_len) Enc_index.label_len
  done

let entries_sized records =
  { Bytesutil.size = entries_len records; emit = (fun sink -> emit_entries sink records) }

(* Labels and payloads are both 16 bytes, so piece [i] of the wire form
   is bytes [16i, 16i + 16) of the packed records. Any other piece
   length, or an odd piece count, is malformed. The decoders below read
   their input in place and name no closure per piece or per group, so
   decoding a Build allocates little beyond what it keeps: they run on
   the server's receive path. *)
let rec pack_entries s at b i pieces =
  i = pieces
  || Bytesutil.get_be32 s at = Enc_index.label_len
     && begin
       Bytes.blit_string s (at + 4) b (i * Enc_index.label_len) Enc_index.label_len;
       pack_entries s (at + piece_len) b (i + 1) pieces
     end

let entries_of_view s ~off ~len =
  if len mod (2 * piece_len) <> 0 then None
  else begin
    let pieces = len / piece_len in
    let b = Bytes.create (pieces * Enc_index.label_len) in
    if pack_entries s off b 0 pieces then Some (Bytes.unsafe_to_string b) else None
  end

let entries_to_bytes records = Bytesutil.sized_to_string (entries_sized records)
let entries_of_bytes s = entries_of_view s ~off:0 ~len:(String.length s)

let group_len (g : Owner.keyword_group) =
  12 + String.length g.Owner.kg_g1 + bigint_len g.Owner.kg_prime + entries_len g.Owner.kg_entries

let emit_group sink prefix (g : Owner.keyword_group) =
  emit_piece sink prefix g.Owner.kg_g1;
  emit_piece sink prefix (Bigint.to_bytes_be g.Owner.kg_prime);
  emit_prefix sink prefix (entries_len g.Owner.kg_entries);
  emit_entries sink g.Owner.kg_entries

let group_to_bytes g =
  Bytesutil.sized_to_string
    { Bytesutil.size = group_len g; emit = (fun sink -> emit_group sink (Bytes.create 4) g) }

(* The length of the piece whose prefix sits at [at] in [s], when the
   piece ends by [stop]; -1 otherwise. *)
let piece_at s at stop =
  if at + 4 > stop then -1
  else
    let n = Bytesutil.get_be32 s at in
    if at + 4 + n > stop then -1 else n

(* A group is exactly three pieces: its G1 key, its prime and its
   entries. *)
let group_of_view s ~off ~len =
  let stop = off + len in
  let g1_len = piece_at s off stop in
  let prime_at = off + 4 + g1_len in
  let prime_len = if g1_len < 0 then -1 else piece_at s prime_at stop in
  let entries_at = prime_at + 4 + prime_len in
  let entries_len = if prime_len < 0 then -1 else piece_at s entries_at stop in
  if entries_len < 0 || entries_at + 4 + entries_len <> stop then None
  else
    let* kg_entries = entries_of_view s ~off:(entries_at + 4) ~len:entries_len in
    Some
      { Owner.kg_g1 = String.sub s (off + 4) g1_len;
        kg_entries;
        kg_prime = Bigint.of_bytes_be (String.sub s (prime_at + 4) prime_len) }

let shipment_sized (sh : Owner.shipment) =
  let groups_len = List.fold_left (fun n g -> n + 4 + group_len g) 0 sh.Owner.sh_groups in
  let witnesses_len = List.fold_left (fun n w -> n + 4 + bigint_len w) 0 sh.Owner.sh_witnesses in
  { Bytesutil.size = 12 + bigint_len sh.Owner.sh_ac + groups_len + witnesses_len;
    emit =
      (fun sink ->
        let prefix = Bytes.create 4 in
        emit_piece sink prefix (Bigint.to_bytes_be sh.Owner.sh_ac);
        emit_prefix sink prefix groups_len;
        List.iter
          (fun g ->
            emit_prefix sink prefix (group_len g);
            emit_group sink prefix g)
          sh.Owner.sh_groups;
        emit_prefix sink prefix witnesses_len;
        List.iter (fun w -> emit_piece sink prefix (Bigint.to_bytes_be w)) sh.Owner.sh_witnesses) }

let shipment_to_bytes sh = Bytesutil.sized_to_string (shipment_sized sh)

exception Malformed

let bigint_of_view s off len = Bigint.of_bytes_be (String.sub s off len)

let shipment_of_view s ~off ~len =
  match Bytesutil.views s ~off ~len with
  | Some [ (ac_off, ac_len); (groups_off, groups_len); (witnesses_off, witnesses_len) ] ->
    (match
       ( Bytesutil.fold_pieces s ~off:groups_off ~len:groups_len
           (fun groups off len ->
             match group_of_view s ~off ~len with Some g -> g :: groups | None -> raise Malformed)
           [],
         Bytesutil.fold_pieces s ~off:witnesses_off ~len:witnesses_len
           (fun ws off len -> bigint_of_view s off len :: ws)
           [] )
     with
     | Some groups, Some witnesses ->
       Some
         { Owner.sh_groups = List.rev groups;
           sh_ac = bigint_of_view s ac_off ac_len;
           sh_witnesses = List.rev witnesses }
     | _ -> None
     | exception Malformed -> None)
  | _ -> None

let shipment_of_bytes s = shipment_of_view s ~off:0 ~len:(String.length s)

(* --- trapdoor state -------------------------------------------------------- *)

(* The bindings in keyword order, each as the pieces [w; trapdoor; j]. *)
let trapdoor_state_sized (st : Owner.trapdoor_state) =
  let bindings = Array.make (Hashtbl.length st) ("", ("", 0)) in
  ignore (Hashtbl.fold (fun w v k -> bindings.(k) <- (w, v); k + 1) st 0);
  Array.sort (fun (a, _) (b, _) -> String.compare a b) bindings;
  { Bytesutil.size =
      Array.fold_left
        (fun n (w, (trapdoor, j)) ->
          n + 12 + String.length w + String.length trapdoor + String.length (string_of_int j))
        0 bindings;
    emit =
      (fun sink ->
        let prefix = Bytes.create 4 in
        Array.iter
          (fun (w, (trapdoor, j)) ->
            emit_piece sink prefix w;
            emit_piece sink prefix trapdoor;
            emit_piece sink prefix (string_of_int j))
          bindings) }

let trapdoor_state_to_bytes st = Bytesutil.sized_to_string (trapdoor_state_sized st)

(* Pieces come in triples [w; trapdoor; j]. The first fold checks the
   encoding and counts them; the walk then reads each triple in place. *)
let trapdoor_state_of_view s ~off ~len =
  let* pieces = Bytesutil.fold_pieces s ~off ~len (fun n _ _ -> n + 1) 0 in
  if pieces mod 3 <> 0 then None
  else begin
    let st : Owner.trapdoor_state = Hashtbl.create (pieces / 3) in
    let stop = off + len in
    let rec triple at =
      if at = stop then Some st
      else begin
        let w_len = Bytesutil.get_be32 s at in
        let trapdoor_at = at + 4 + w_len in
        let trapdoor_len = Bytesutil.get_be32 s trapdoor_at in
        let j_at = trapdoor_at + 4 + trapdoor_len in
        let j_len = Bytesutil.get_be32 s j_at in
        match int_of_string_opt (String.sub s (j_at + 4) j_len) with
        | Some j when j >= 0 ->
          Hashtbl.replace st (String.sub s (at + 4) w_len)
            (String.sub s (trapdoor_at + 4) trapdoor_len, j);
          triple (j_at + 4 + j_len)
        | _ -> None
      end
    in
    triple off
  end

let trapdoor_state_of_bytes s = trapdoor_state_of_view s ~off:0 ~len:(String.length s)

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
