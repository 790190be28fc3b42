(* Tests for the wire codecs and file persistence: the owner → cloud and
   owner → user channels must round-trip exactly and reject malformed
   frames. *)

let prop name ?(count = 100) gen p =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen p)

let gen_record =
  let open QCheck2.Gen in
  let* id = string_size ~gen:(char_range 'a' 'z') (int_range 1 15) in
  let* nfields = int_range 1 3 in
  let* fields =
    list_size (return nfields)
      (pair (string_size ~gen:(char_range 'a' 'z') (int_range 0 6)) (int_range 0 65535))
  in
  return { Slicer_types.id; fields }

let gen_records = QCheck2.Gen.(list_size (int_range 0 20) gen_record)

let test_record_roundtrip () =
  let records =
    [ Slicer_types.record_of_value "simple" 42;
      { Slicer_types.id = "multi"; fields = [ ("age", 7); ("", 0); ("x", 1 lsl 29) ] } ]
  in
  match Persist.records_of_bytes (Persist.records_to_bytes records) with
  | Some back -> Alcotest.(check bool) "equal" true (records = back)
  | None -> Alcotest.fail "roundtrip failed"

let test_records_malformed () =
  Alcotest.(check bool) "garbage" true (Persist.records_of_bytes "\xff\xff" = None);
  Alcotest.(check bool) "odd fields" true
    (Persist.records_of_bytes (Bytesutil.concat [ Bytesutil.concat [ "id"; "attr" ] ]) = None);
  Alcotest.(check bool) "bad int" true
    (Persist.records_of_bytes (Bytesutil.concat [ Bytesutil.concat [ "id"; "a"; "NaN" ] ]) = None);
  Alcotest.(check bool) "empty list ok" true (Persist.records_of_bytes "" = Some [])

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
   the encoding is exactly Ac plus the group encodings (4-byte length
   prefixes aside), and every entry's position and payload occur once. *)
let test_shipment_encodes_each_entry_once () =
  let _, shipment = owner_shipment () in
  let bytes = Persist.shipment_to_bytes shipment in
  let framed s = 4 + String.length s in
  let groups = List.map Persist.group_to_bytes shipment.Owner.sh_groups in
  Alcotest.(check int) "size is Ac plus the group encodings"
    (framed (Bigint.to_bytes_be shipment.Owner.sh_ac)
     + 4 + List.fold_left (fun n g -> n + framed g) 0 groups)
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
    Cloud.install cloud ~entries:(Owner.shipment_entries shipped)
      ~primes:(Owner.shipment_primes shipped) ~ac:shipped.Owner.sh_ac;
    Alcotest.(check int) "entry count" (List.length (Owner.shipment_entries shipment))
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

let props =
  [ prop "records roundtrip" gen_records (fun records ->
        Persist.records_of_bytes (Persist.records_to_bytes records) = Some records);
    prop "records reject truncation" ~count:50 gen_records (fun records ->
        let b = Persist.records_to_bytes records in
        String.length b < 2 || Persist.records_of_bytes (String.sub b 0 (String.length b - 1)) = None)
  ]

let () =
  Alcotest.run "persist"
    [ ( "codecs",
        [ Alcotest.test_case "records roundtrip" `Quick test_record_roundtrip;
          Alcotest.test_case "records malformed" `Quick test_records_malformed;
          Alcotest.test_case "shipment roundtrip" `Quick test_shipment_roundtrip;
          Alcotest.test_case "shipment encodes each entry once" `Quick
            test_shipment_encodes_each_entry_once;
          Alcotest.test_case "shipment feeds a cloud" `Quick test_shipment_feeds_cloud;
          Alcotest.test_case "trapdoor state roundtrip" `Quick test_trapdoor_state_roundtrip;
          Alcotest.test_case "token bytes roundtrip" `Quick test_token_bytes_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
          Alcotest.test_case "file save is atomic" `Quick test_file_save_is_atomic;
          Alcotest.test_case "load never raises" `Quick test_load_never_raises ] );
      ("properties", props) ]
