(* Tests for the wire codecs and file persistence: the owner → cloud and
   owner → user channels must round-trip exactly and reject malformed
   frames. *)

let prop name ?(count = 100) gen p =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen p)

let owner_shipment () =
  let rng = Drbg.create ~seed:"persist" in
  let keys = Keys.generate ~tdp_bits:256 ~rng () in
  let acc_params = Rsa_acc.setup ~rng ~bits:256 () in
  let owner = Owner.create ~width:6 ~rng ~acc_params ~keys () in
  let shipment = Owner.build owner (Gen.uniform_records ~rng ~width:6 10) in
  (owner, shipment)

let test_shipment_roundtrip () =
  let _, shipment = owner_shipment () in
  let bytes = Persist.shipment_to_bytes shipment in
  match Persist.shipment_of_bytes bytes with
  | None -> Alcotest.fail "roundtrip failed"
  | Some back ->
    Alcotest.(check int) "groups" (List.length shipment.Owner.sh_groups)
      (List.length back.Owner.sh_groups);
    List.iter2
      (fun (a : Owner.keyword_group) (b : Owner.keyword_group) ->
        Alcotest.(check string) "group key" a.Owner.kg_g1 b.Owner.kg_g1;
        Alcotest.(check bool) "group entries" true (a.Owner.kg_entries = b.Owner.kg_entries);
        Alcotest.(check bool) "group prime" true (Bigint.equal a.Owner.kg_prime b.Owner.kg_prime))
      shipment.Owner.sh_groups back.Owner.sh_groups;
    Alcotest.(check bool) "ac" true (Bigint.equal shipment.Owner.sh_ac back.Owner.sh_ac);
    Alcotest.(check int) "one witness per group" (List.length shipment.Owner.sh_groups)
      (List.length back.Owner.sh_witnesses);
    Alcotest.(check bool) "witnesses" true
      (List.equal Bigint.equal shipment.Owner.sh_witnesses back.Owner.sh_witnesses);
    Alcotest.(check string) "re-encodes to the same bytes" bytes (Persist.shipment_to_bytes back)

(* Occurrences of [needle] in [hay]. *)
let occurrences ~needle hay =
  let n = String.length needle and h = String.length hay in
  let count = ref 0 in
  for i = 0 to h - n do
    if String.sub hay i n = needle then incr count
  done;
  !count

(* The Build shipment carries each index entry once, inside its group:
   the encoding is exactly Ac plus the group encodings plus the
   witnesses (4-byte length prefixes aside), and every entry's position
   and payload occur once. *)
let test_shipment_encodes_each_entry_once () =
  let _, shipment = owner_shipment () in
  let bytes = Persist.shipment_to_bytes shipment in
  let framed s = 4 + String.length s in
  let all_framed = List.fold_left (fun n s -> n + framed s) 0 in
  let groups = List.map Persist.group_to_bytes shipment.Owner.sh_groups in
  Alcotest.(check int) "size is Ac plus the group encodings plus the witnesses"
    (framed (Bigint.to_bytes_be shipment.Owner.sh_ac)
     + 4 + all_framed groups
     + 4 + all_framed (List.map Bigint.to_bytes_be shipment.Owner.sh_witnesses))
    (String.length bytes);
  let entries = Owner.shipment_entries shipment in
  Alcotest.(check bool) "the shipment has entries" true (List.length entries > 50);
  List.iter
    (fun (l, d) ->
      Alcotest.(check int) "position occurs once" 1 (occurrences ~needle:l bytes);
      Alcotest.(check int) "payload occurs once" 1 (occurrences ~needle:d bytes))
    entries

let test_shipment_feeds_cloud () =
  (* A shipment that crossed the wire must drive a cloud identically. *)
  let owner, shipment = owner_shipment () in
  let bytes = Persist.shipment_to_bytes shipment in
  match Persist.shipment_of_bytes bytes with
  | None -> Alcotest.fail "decode failed"
  | Some shipped ->
    let keys = Owner.keys owner in
    let cloud = Cloud.create ~acc_params:(Owner.acc_params owner) ~tdp_public:keys.Keys.tdp_public () in
    Cloud.install_shipment cloud shipped;
    Alcotest.(check int) "entry count" (Owner.shipment_entry_count shipment)
      (Cloud.index_entries cloud);
    Alcotest.(check int) "prime count" (List.length shipment.Owner.sh_groups)
      (Cloud.prime_count cloud);
    Alcotest.(check bool) "ac" true (Bigint.equal shipment.Owner.sh_ac (Cloud.current_ac cloud))

let test_trapdoor_state_roundtrip () =
  let owner, _ = owner_shipment () in
  let st = Owner.export_trapdoor_state owner in
  match Persist.trapdoor_state_of_bytes (Persist.trapdoor_state_to_bytes st) with
  | None -> Alcotest.fail "roundtrip failed"
  | Some back ->
    Alcotest.(check int) "size" (Hashtbl.length st) (Hashtbl.length back);
    Hashtbl.iter
      (fun w (t, j) ->
        match Hashtbl.find_opt back w with
        | Some (t', j') when String.equal t t' && j = j' -> ()
        | _ -> Alcotest.fail "binding lost")
      st

let test_file_roundtrip () =
  let path = Filename.temp_file "slicer-persist" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let payload = "\x00\x01binary\xffpayload" in
      Persist.save ~path payload;
      Alcotest.(check (option string)) "file roundtrip" (Some payload) (Persist.load ~path));
  Alcotest.(check (option string)) "missing file" None (Persist.load ~path:"/nonexistent/nope.bin")

let test_file_save_is_atomic () =
  (* [save] goes through a temp file + rename: overwriting never leaves
     a mix of old and new bytes, and no temp debris stays behind. *)
  let path = Filename.temp_file "slicer-persist" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Persist.save ~path "first generation";
      Persist.save ~path "second";
      Alcotest.(check (option string)) "overwrite is complete" (Some "second")
        (Persist.load ~path);
      let dir = Filename.dirname path and base = Filename.basename path in
      let debris =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun name ->
               name <> base
               && String.length name >= String.length base
               && String.sub name 0 (String.length base) = base)
      in
      Alcotest.(check (list string)) "no temp debris next to the file" [] debris;
      (* Truncation between writes is still a consistent (shorter) file
         — load reflects it rather than raising. *)
      let oc = open_out_bin path in
      output_string oc "second";
      close_out oc;
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
      Unix.ftruncate fd 3;
      Unix.close fd;
      Alcotest.(check bool) "truncated file still loads its bytes" true
        (Persist.load ~path = Some "sec"))

let test_load_never_raises () =
  (* A directory where a file is expected: Sys_error territory. *)
  Alcotest.(check (option string)) "directory" None (Persist.load ~path:(Filename.get_temp_dir_name ()))

let test_token_bytes_roundtrip () =
  let st =
    { Slicer_types.st_trapdoor = String.make 64 '\x42'; st_updates = 3; st_g1 = String.make 16 'a'; st_g2 = String.make 16 'b' }
  in
  (match Slicer_types.token_of_bytes (Slicer_types.token_bytes st) with
   | Some back -> Alcotest.(check bool) "token roundtrip" true (st = back)
   | None -> Alcotest.fail "token roundtrip failed");
  Alcotest.(check bool) "malformed token" true (Slicer_types.token_of_bytes "junk" = None);
  Alcotest.(check bool) "negative generation" true
    (Slicer_types.token_of_bytes (Bytesutil.concat [ "t"; "-1"; "g1"; "g2" ]) = None)

(* --- the shipment codec, pinned ---------------------------------------------- *)

(* The revision-8 shipment form as a plain nest of [Bytesutil.concat]s
   over [(l, d)] pairs: the reference the in-place encoder must match
   byte for byte. *)
let reference_shipment_bytes (sh : Owner.shipment) =
  let pairs records =
    List.init (String.length records / 32) (fun k ->
        [ String.sub records (32 * k) 16; String.sub records ((32 * k) + 16) 16 ])
    |> List.concat
  in
  Bytesutil.concat
    [ Bigint.to_bytes_be sh.Owner.sh_ac;
      Bytesutil.concat
        (List.map
           (fun (g : Owner.keyword_group) ->
             Bytesutil.concat
               [ g.Owner.kg_g1; Bigint.to_bytes_be g.Owner.kg_prime;
                 Bytesutil.concat (pairs g.Owner.kg_entries) ])
           sh.Owner.sh_groups);
      Bytesutil.concat (List.map Bigint.to_bytes_be sh.Owner.sh_witnesses) ]

let same_shipment (a : Owner.shipment) (b : Owner.shipment) =
  Bigint.equal a.Owner.sh_ac b.Owner.sh_ac
  && List.equal
       (fun (x : Owner.keyword_group) (y : Owner.keyword_group) ->
         String.equal x.Owner.kg_g1 y.Owner.kg_g1
         && String.equal x.Owner.kg_entries y.Owner.kg_entries
         && Bigint.equal x.Owner.kg_prime y.Owner.kg_prime)
       a.Owner.sh_groups b.Owner.sh_groups
  && List.equal Bigint.equal a.Owner.sh_witnesses b.Owner.sh_witnesses

(* Random shipments: no groups, one group or many, each group with no
   entry, one entry or many, and no witness (an Insert's) or one per
   group (a Build's). *)
let gen_shipment =
  let open QCheck2.Gen in
  let bigint = map Bigint.of_bytes_be (string_size (int_range 1 34)) in
  let group =
    let* kg_g1 = string_size (return 16) in
    let* entries = oneof [ return 0; return 1; int_range 2 40 ] in
    let* kg_entries = string_size (return (32 * entries)) in
    let* kg_prime = bigint in
    return { Owner.kg_g1; kg_entries; kg_prime }
  in
  let* sh_groups =
    oneof [ return []; list_size (return 1) group; list_size (int_range 2 12) group ]
  in
  let* sh_ac = bigint in
  let* sh_witnesses = oneof [ return []; list_size (return (List.length sh_groups)) bigint ] in
  return { Owner.sh_groups; sh_ac; sh_witnesses }

let shipment_codec_roundtrip sh =
  let bytes = Persist.shipment_to_bytes sh in
  let framed = "head" ^ bytes ^ "tail" in
  String.equal bytes (reference_shipment_bytes sh)
  && (match Persist.shipment_of_bytes bytes with
      | Some back -> same_shipment sh back && String.equal bytes (Persist.shipment_to_bytes back)
      | None -> false)
  && (match Persist.shipment_of_view framed ~off:4 ~len:(String.length bytes) with
      | Some back -> same_shipment sh back
      | None -> false)

(* Entry pieces other than 16 bytes, and length prefixes cut short at
   every level, are malformed: [None], never an exception. *)
let test_shipment_malformed_pieces () =
  let l = String.make 16 'l' and d = String.make 16 'd' in
  let group entries_blob = Bytesutil.concat [ String.make 16 'g'; "\x05"; entries_blob ] in
  let shipment groups_blob = Bytesutil.concat [ "\x07"; groups_blob; Bytesutil.concat [] ] in
  let decodes bytes = Persist.shipment_of_bytes bytes <> None in
  Alcotest.(check bool) "well-formed control decodes" true
    (decodes (shipment (Bytesutil.concat [ group (Bytesutil.concat [ l; d ]) ])));
  List.iter
    (fun (what, pieces) ->
      Alcotest.(check bool) what false
        (decodes (shipment (Bytesutil.concat [ group (Bytesutil.concat pieces) ])));
      Alcotest.(check bool) (what ^ " (bare entries)") true
        (Persist.entries_of_bytes (Bytesutil.concat pieces) = None))
    [ ("15-byte position", [ String.make 15 'l'; d ]);
      ("17-byte position", [ String.make 17 'l'; d ]);
      ("15-byte payload", [ l; String.make 15 'd' ]);
      ("17-byte payload", [ l; String.make 17 'd' ]);
      ("15 + 17 bytes, a record's worth", [ String.make 15 'l'; String.make 17 'd' ]);
      ("17 + 15 bytes, a record's worth", [ String.make 17 'l'; String.make 15 'd' ]);
      ("a position without its payload", [ l; d; l ]) ];
  let entries = Bytesutil.concat [ l; d ] in
  Alcotest.(check bool) "entries: truncated length prefix" false
    (decodes (shipment (Bytesutil.concat [ group (entries ^ "\x00\x00") ])));
  Alcotest.(check bool) "groups: truncated length prefix" false
    (decodes (shipment (Bytesutil.concat [ group entries ] ^ "\x00\x00\x00")));
  Alcotest.(check bool) "group: truncated length prefix" false
    (decodes
       (shipment
          (Bytesutil.concat [ Bytesutil.concat [ String.make 16 'g'; "\x05" ] ^ "\x00" ])));
  let _, real = owner_shipment () in
  let bytes = Persist.shipment_to_bytes real in
  for cut = 0 to String.length bytes - 1 do
    if decodes (String.sub bytes 0 cut) then Alcotest.failf "a %d-byte prefix decoded" cut
  done

(* Requests for a fixed seed, hashed on the commit before entries were
   packed: the wire (and the WAL, which journals these bytes) must not
   move by one bit. *)
let test_request_golden () =
  let rng = Drbg.create ~seed:"shipment-golden" in
  let keys = Keys.generate ~tdp_bits:256 ~rng () in
  let acc_params = Rsa_acc.setup ~rng ~bits:256 () in
  let owner = Owner.create ~width:6 ~rng ~acc_params ~keys () in
  let build = Owner.build owner (Gen.uniform_records ~rng ~width:6 40) in
  let user = Keys.for_user keys in
  let build_req =
    Net.Wire.Build
      { client = "owner"; request_id = "owner#1"; width = 6; payment = 1000; acc = acc_params;
        tdp_n = keys.Keys.tdp_public.Rsa_tdp.pn; tdp_e = keys.Keys.tdp_public.Rsa_tdp.e;
        user_k = user.Keys.u_k; user_k_r = user.Keys.u_k_r; shipment = build;
        trapdoor = Owner.export_trapdoor_state owner; trace = None }
  in
  let insert =
    Owner.insert owner
      (List.init 8 (fun i -> Slicer_types.record_of_value (Printf.sprintf "late-%d" i) (7 * i)))
  in
  let insert_req =
    Net.Wire.Insert
      { client = "owner"; request_id = "owner#2"; shipment = insert;
        trapdoor = Owner.export_trapdoor_state owner; trace = None }
  in
  List.iter
    (fun (what, req, size, digest) ->
      let bytes = Net.Wire.encode_request req in
      Alcotest.(check int) (what ^ " size") size (String.length bytes);
      Alcotest.(check string) (what ^ " sha-256") digest (Sha256.digest_hex bytes);
      match Net.Wire.decode_request bytes with
      | Some back ->
        Alcotest.(check string) (what ^ " re-encodes") bytes (Net.Wire.encode_request back)
      | None -> Alcotest.failf "%s did not decode" what)
    [ ("build", build_req, 29141,
       "652d72709d0a6601352abf5c81e4909356142d1acd241461c1a7ceb2c7c2b08d");
      ("insert", insert_req, 13076,
       "53baab6ca055303263a579e7a04a36ba0713f45c9421ab5fffb6b58d60df0577") ]

(* The snapshot's entry section is written from the arena: the same
   bytes as the sorted [(l, d)] pairs it was written from before. *)
let test_snapshot_entry_section () =
  let owner, shipment = owner_shipment () in
  let keys = Owner.keys owner in
  let cloud =
    Cloud.create ~acc_params:(Owner.acc_params owner) ~tdp_public:keys.Keys.tdp_public ()
  in
  Cloud.install_shipment cloud shipment;
  let section = Persist.entries_to_bytes (Cloud.sorted_records cloud) in
  Alcotest.(check string) "sorted pairs, concatenated"
    (Bytesutil.concat
       (List.concat_map (fun (l, d) -> [ l; d ])
          (List.sort compare (Owner.shipment_entries shipment))))
    section;
  match Persist.entries_of_bytes section with
  | Some records -> Alcotest.(check string) "decodes to the records" (Cloud.sorted_records cloud) records
  | None -> Alcotest.fail "entry section did not decode"

(* Decoding a Build request and installing it must not copy the
   shipment through boxed pairs and per-entry tables. The shipment has
   the perfbench owner's shape (1,000 width-8 records, 9,000 entries).
   This case read 521,343 major words while entries travelled as boxed
   [(l, d)] pairs, and 149,106 with packed records. It read 215,985 on
   the tree before a Build shipped its witnesses, and 243,797 with
   them: the 754 witnesses the tree keeps and their decoding. It reads
   179,590 with a tree that stores no interior product, an index that
   checks every position ahead of its first write (a 64 KB table of the
   shipment's records) and a trapdoor state decoded in place. Most of
   the rest is the decoded shipment promoted by the minor collection the
   index arena's growth starts. *)
let build_major_words_bound = 190_000

let test_build_decode_allocation () =
  let rng = Drbg.create ~seed:"alloc-build" in
  let keys = Keys.generate ~tdp_bits:512 ~rng () in
  let acc_params = Rsa_acc.setup ~rng ~bits:512 () in
  let owner = Owner.create ~width:8 ~rng ~acc_params ~keys () in
  let shipment = Owner.build owner (Gen.uniform_records ~rng ~width:8 1000) in
  let user = Keys.for_user keys in
  let request =
    Net.Wire.encode_request
      (Net.Wire.Build
         { client = "owner"; request_id = "owner#1"; width = 8; payment = 1000; acc = acc_params;
           tdp_n = keys.Keys.tdp_public.Rsa_tdp.pn; tdp_e = keys.Keys.tdp_public.Rsa_tdp.e;
           user_k = user.Keys.u_k; user_k_r = user.Keys.u_k_r; shipment;
           trapdoor = Owner.export_trapdoor_state owner; trace = None })
  in
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.major_words in
  match Net.Wire.decode_request request with
  | Some (Net.Wire.Build { shipment = shipped; _ }) ->
    let cloud = Cloud.create ~acc_params ~tdp_public:keys.Keys.tdp_public () in
    Cloud.install_shipment cloud shipped;
    let words = int_of_float ((Gc.quick_stat ()).Gc.major_words -. before) in
    Alcotest.(check int) "entries installed" 9000 (Cloud.index_entries cloud);
    if words > build_major_words_bound then
      Alcotest.failf "decode + install put %d words in the major heap (bound %d)" words
        build_major_words_bound
  | _ -> Alcotest.fail "the Build request did not decode"

(* Each cloud adds its own sizes to the two gauges, so clouds in one
   process sum, and the warm's growth shows up, as do a Build's shipped
   witnesses. The clouds install the Build without its witnesses, as a
   routed shard gets it, so their trees hold primes only until the
   warm. *)
let test_size_gauges () =
  let gauge name = Obs.Gauge.value (Obs.gauge name) in
  let index0 = gauge "slicer_cloud_index_bytes" and tree0 = gauge "slicer_witness_tree_bytes" in
  let owner, witnessed = owner_shipment () in
  let shipment = { witnessed with Owner.sh_witnesses = [] } in
  let keys = Owner.keys owner in
  let cloud ?(shipment = shipment) () =
    let c =
      Cloud.create ~acc_params:(Owner.acc_params owner) ~tdp_public:keys.Keys.tdp_public ()
    in
    Cloud.install_shipment c shipment;
    c
  in
  let a = cloud () in
  let index_a = gauge "slicer_cloud_index_bytes" - index0
  and tree_a = gauge "slicer_witness_tree_bytes" - tree0 in
  Alcotest.(check bool) "the arena covers the stored entries" true (index_a >= Cloud.index_bytes a);
  Alcotest.(check bool) "the tree holds its primes" true (tree_a > 0);
  ignore (cloud ());
  Alcotest.(check int) "two clouds' arenas sum" (2 * index_a) (gauge "slicer_cloud_index_bytes" - index0);
  Alcotest.(check int) "two clouds' trees sum" (2 * tree_a) (gauge "slicer_witness_tree_bytes" - tree0);
  Cloud.precompute_witnesses a;
  let warmed = gauge "slicer_witness_tree_bytes" - tree0 in
  Alcotest.(check bool) "the warm's witnesses count" true (warmed > 2 * tree_a);
  ignore (cloud ~shipment:witnessed ());
  Alcotest.(check bool) "a Build's shipped witnesses count" true
    (gauge "slicer_witness_tree_bytes" - tree0 > warmed + tree_a)

let props =
  [ prop "shipment codec round trip, byte-identical" ~count:200 gen_shipment
      shipment_codec_roundtrip;
  ]

let () =
  Alcotest.run "persist"
    [ ( "codecs",
        [ Alcotest.test_case "shipment roundtrip" `Quick test_shipment_roundtrip;
          Alcotest.test_case "shipment encodes each entry once" `Quick
            test_shipment_encodes_each_entry_once;
          Alcotest.test_case "shipment feeds a cloud" `Quick test_shipment_feeds_cloud;
          Alcotest.test_case "trapdoor state roundtrip" `Quick test_trapdoor_state_roundtrip;
          Alcotest.test_case "token bytes roundtrip" `Quick test_token_bytes_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
          Alcotest.test_case "file save is atomic" `Quick test_file_save_is_atomic;
          Alcotest.test_case "load never raises" `Quick test_load_never_raises ] );
      ( "packed shipments",
        [ Alcotest.test_case "malformed entry pieces refused" `Quick
            test_shipment_malformed_pieces;
          Alcotest.test_case "build and insert request golden" `Quick test_request_golden;
          Alcotest.test_case "snapshot entry section" `Quick test_snapshot_entry_section;
          Alcotest.test_case "build decode allocation bound" `Quick test_build_decode_allocation;
          Alcotest.test_case "size gauges sum over clouds" `Quick test_size_gauges ] );
      ("properties", props) ]
