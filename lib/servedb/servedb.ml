type key = { sk_label : string; sk_label_kd : Hmac.keyed; sk_enc : Aes128.key }

let keygen ~rng =
  let sk_label = Drbg.generate rng 16 in
  { sk_label;
    sk_label_kd = Hmac.create ~key:sk_label;
    sk_enc = Aes128.expand (Drbg.generate rng 16) }

(* A leaf is (tag, encrypted IDs); leaves are sorted by tag so absence
   is provable by adjacency. *)
type server = {
  leaves : (string * string list) array; (* sorted by tag *)
  tree : Merkle.t;
  plain : (string * int) list;           (* server-side ciphertext store stand-in *)
}

type leaf_evidence = { ev_tag : string; ev_ids : string list; ev_proof : Merkle.proof }

type response = {
  rsp_present : leaf_evidence list;
  rsp_absent : (string * leaf_evidence option * leaf_evidence option) list;
}

let tag key ~width seg = Hmac.prf128_keyed key.sk_label_kd (Bytesutil.concat [ "sdb"; Dyadic.label ~width seg ])

let leaf_payload (t, ids) = Bytesutil.concat (t :: ids)

let build key ~width records =
  let by_tag : (string, string list ref) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (id, v) ->
      let enc_id = Aes128.encrypt_string key.sk_enc id in
      List.iter
        (fun seg ->
          let t = tag key ~width seg in
          match Hashtbl.find_opt by_tag t with
          | Some ids -> ids := enc_id :: !ids
          | None -> Hashtbl.replace by_tag t (ref [ enc_id ]))
        (Dyadic.segments_of_value ~width v))
    records;
  let leaves =
    Hashtbl.fold (fun t ids acc -> (t, List.rev !ids) :: acc) by_tag []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> Array.of_list
  in
  { leaves; tree = Merkle.build (List.map leaf_payload (Array.to_list leaves)); plain = records }

let insert key server ~width records = build key ~width (server.plain @ records)

let root server =
  Bytesutil.concat [ Merkle.root server.tree; Bytesutil.be32 (Array.length server.leaves) ]

(* Binary search for a tag; Ok index if present, Error insertion-point
   otherwise. *)
let locate server t =
  let n = Array.length server.leaves in
  let rec go lo hi =
    if lo >= hi then Error lo
    else begin
      let mid = (lo + hi) / 2 in
      let c = String.compare (fst server.leaves.(mid)) t in
      if c = 0 then Ok mid else if c < 0 then go (mid + 1) hi else go lo mid
    end
  in
  go 0 n

let evidence server i =
  let t, ids = server.leaves.(i) in
  { ev_tag = t; ev_ids = ids; ev_proof = Merkle.prove server.tree i }

let search key server ~width ~lo ~hi =
  let segs = Dyadic.cover ~width ~lo ~hi in
  List.fold_left
    (fun rsp seg ->
      let t = tag key ~width seg in
      match locate server t with
      | Ok i -> { rsp with rsp_present = evidence server i :: rsp.rsp_present }
      | Error insertion ->
        let pred = if insertion > 0 then Some (evidence server (insertion - 1)) else None in
        let succ =
          if insertion < Array.length server.leaves then Some (evidence server insertion) else None
        in
        { rsp with rsp_absent = (t, pred, succ) :: rsp.rsp_absent })
    { rsp_present = []; rsp_absent = [] }
    segs

let verify_and_decrypt key ~root:committed ~width ~lo ~hi response =
  let ( let* ) = Option.bind in
  let* pieces = Bytesutil.split committed in
  let* mk_root, leaf_count =
    match pieces with
    | [ r; c ] when String.length c = 4 ->
      let count =
        (Char.code c.[0] lsl 24) lor (Char.code c.[1] lsl 16) lor (Char.code c.[2] lsl 8)
        lor Char.code c.[3]
      in
      Some (r, count)
    | _ -> None
  in
  let check_leaf ev =
    Merkle.verify ~root:mk_root ~leaf:(leaf_payload (ev.ev_tag, ev.ev_ids)) ev.ev_proof
  in
  let segs = Dyadic.cover ~width ~lo ~hi in
  let expected_tags = List.map (fun seg -> tag key ~width seg) segs in
  let present = List.map (fun ev -> (ev.ev_tag, ev)) response.rsp_present in
  let absent = List.map (fun (t, p, s) -> (t, (p, s))) response.rsp_absent in
  let check_tag t =
    match List.assoc_opt t present with
    | Some ev -> if check_leaf ev then Some ev.ev_ids else None
    | None ->
      let* pred, succ = List.assoc_opt t absent in
      (* Adjacency: predecessor and successor are consecutive leaves
         bracketing the missing tag; boundary cases use the committed
         leaf count. *)
      let pred_ok, pred_index =
        match pred with
        | Some ev -> (check_leaf ev && String.compare ev.ev_tag t < 0, Some ev.ev_proof.Merkle.index)
        | None -> (true, None)
      in
      let succ_ok, succ_index =
        match succ with
        | Some ev -> (check_leaf ev && String.compare ev.ev_tag t > 0, Some ev.ev_proof.Merkle.index)
        | None -> (true, None)
      in
      let adjacency =
        match (pred_index, succ_index) with
        | Some p, Some s -> s = p + 1
        | None, Some s -> s = 0
        | Some p, None -> p = leaf_count - 1
        | None, None -> leaf_count = 0
      in
      if pred_ok && succ_ok && adjacency then Some [] else None
  in
  let rec gather acc = function
    | [] -> Some (List.rev acc)
    | t :: rest ->
      let* ids = check_tag t in
      gather (List.rev_append ids acc) rest
  in
  let* encrypted = gather [] expected_tags in
  (* Decryption is part of verification here — the private-verifiability
     limitation the paper calls out. *)
  let rec decrypt acc = function
    | [] -> Some (List.rev acc)
    | ct :: rest ->
      (match Aes128.decrypt_string key.sk_enc ct with
       | id -> decrypt (id :: acc) rest
       | exception Invalid_argument _ -> None)
  in
  decrypt [] encrypted

let proof_bytes response =
  let leaf_bytes ev =
    String.length ev.ev_tag
    + List.fold_left (fun n r -> n + String.length r) 0 ev.ev_ids
    + Merkle.proof_size_bytes ev.ev_proof
  in
  List.fold_left (fun n ev -> n + leaf_bytes ev) 0 response.rsp_present
  + List.fold_left
      (fun n (_, p, s) ->
        n + 16
        + (match p with Some ev -> leaf_bytes ev | None -> 0)
        + match s with Some ev -> leaf_bytes ev | None -> 0)
      0 response.rsp_absent
