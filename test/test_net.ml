(* The networked service, bottom-up: frame hygiene under corruption
   (qcheck), the typed codecs, the backoff schedule, idempotent
   settlement, and loopback end-to-end runs — concurrent clients against
   one server, byte-identical to the in-process protocol, surviving a
   server kill/restart mid-load and refusing a tampering cloud. *)

module Wire = Net.Wire
open Server_proc

let prop name ?(count = 100) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let q = Slicer_types.query
let sorted = List.sort String.compare

let check_ids msg expected actual =
  Alcotest.(check (list string)) msg (sorted expected) (sorted actual)

let width = 6

let db =
  let rng = Drbg.create ~seed:"net-db" in
  Gen.uniform_records ~rng ~width 40

let warms () = Obs.counter_value "slicer_net_background_warms_total"

(* Waits until the process has completed [target] background warms. *)
let await_warms target =
  let deadline = Unix.gettimeofday () +. 60. in
  while warms () < target do
    if Unix.gettimeofday () > deadline then Alcotest.fail "the background warm did not finish";
    Thread.delay 0.01
  done

(* A service seeded the way a self-seeded server is: it applies the
   Build of the owner [Protocol.setup ~width ~seed records] starts from,
   then its background witness warm is awaited, so no test races it. *)
let seeded_service ?settle ?shard ~seed records =
  let svc = Net.Service.create ?settle ?shard () in
  let warms0 = warms () in
  (match Net.Service.handle svc (Net.Client.seeded_build ~width ~payment:1000 ~seed records) with
   | Wire.Accepted _ -> ()
   | _ -> Alcotest.fail "the seeding Build was refused");
  await_warms (warms0 + 1);
  svc

(* The served system and its in-process mirror: the service's database
   comes from the owner [Protocol.setup] builds from the same seed, so
   these are twins — same keys, same index and ADS, same claims (their
   chains differ in addresses only). The mirror answers every query the
   way the server must. *)
let mirror_system =
  lazy
    (let s = Protocol.setup ~width ~seed:"net-twin" db in
     Cloud.precompute_witnesses (Protocol.cloud s);
     s)

let service = lazy (seeded_service ~seed:"net-twin" db)

let server =
  lazy
    (let srv = Net.Server.start (Net.Service.handle (Lazy.force service)) in
     at_exit (fun () -> Net.Server.stop srv);
     srv)

let endpoint () = Net.Server.endpoint (Lazy.force server)

let client ?(attempts = 5) ?(backoff = 0.02) name =
  let config =
    { Net.Client.default_config with
      max_attempts = attempts;
      backoff_base = backoff;
      request_timeout = 20. }
  in
  match Net.Client.connect ~config ~name (endpoint ()) with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect %s: %s" name (Net.Client.error_to_string e)

(* --- frame layer ----------------------------------------------------------- *)

let test_frame_roundtrip () =
  List.iter
    (fun (tag, payload) ->
      let frame = Net.Frame.encode ~tag payload in
      match Net.Frame.decode frame with
      | Ok (msg, consumed) ->
        Alcotest.(check int) "tag" tag msg.Net.Frame.tag;
        Alcotest.(check string) "payload" payload msg.Net.Frame.payload;
        Alcotest.(check int) "consumed" (String.length frame) consumed
      | Error e -> Alcotest.failf "decode: %s" (Net.Frame.error_to_string e))
    [ (0, ""); (1, "x"); (255, String.make 1000 '\xff'); (7, "hello \x00 world") ]

let test_frame_stream () =
  let frames = [ (1, "first"); (2, ""); (3, "third message") ] in
  let stream = String.concat "" (List.map (fun (tag, p) -> Net.Frame.encode ~tag p) frames) in
  let rec go off acc =
    if off >= String.length stream then List.rev acc
    else
      match Net.Frame.decode ~off stream with
      | Ok (msg, off') -> go off' ((msg.Net.Frame.tag, msg.Net.Frame.payload) :: acc)
      | Error e -> Alcotest.failf "stream decode at %d: %s" off (Net.Frame.error_to_string e)
  in
  Alcotest.(check (list (pair int string))) "all frames" frames (go 0 [])

let test_frame_limits () =
  Alcotest.(check bool) "tag range" true
    (try ignore (Net.Frame.encode ~tag:256 "x"); false with Invalid_argument _ -> true);
  (* A declared length beyond the reader's limit is refused before any
     payload is buffered. *)
  let frame = Net.Frame.encode ~tag:1 (String.make 4096 'a') in
  (match Net.Frame.decode ~max_payload:64 frame with
   | Error (Net.Frame.Oversized n) -> Alcotest.(check int) "declared length" 4096 n
   | Ok _ -> Alcotest.fail "oversized frame accepted"
   | Error e -> Alcotest.failf "expected Oversized, got %s" (Net.Frame.error_to_string e))

let test_frame_length_lies () =
  let frame = Bytes.of_string (Net.Frame.encode ~tag:1 "honest payload") in
  (* Lie upward: the declared length runs past the available bytes. *)
  Bytes.set frame 9 (Char.chr 0xff);
  (match Net.Frame.decode (Bytes.to_string frame) with
   | Error (Net.Frame.Truncated | Net.Frame.Bad_checksum | Net.Frame.Oversized _) -> ()
   | Ok _ -> Alcotest.fail "length-lying frame parsed"
   | Error e -> Alcotest.failf "unexpected: %s" (Net.Frame.error_to_string e));
  (* Lie downward: the checksum (computed over the true length) fails. *)
  let frame = Bytes.of_string (Net.Frame.encode ~tag:1 "honest payload") in
  Bytes.set frame 9 '\x02';
  (match Net.Frame.decode (Bytes.to_string frame) with
   | Error Net.Frame.Bad_checksum -> ()
   | Ok _ -> Alcotest.fail "short-length frame parsed"
   | Error e -> Alcotest.failf "expected Bad_checksum, got %s" (Net.Frame.error_to_string e))

(* The frame layout spelled out with plain concatenation: the encoder
   writes it into one buffer and hashes it in place, and must produce
   exactly these bytes. *)
let reference_frame ~tag payload =
  let fields =
    String.concat ""
      [ "\x01"; String.make 1 (Char.chr tag); Bytesutil.be32 (String.length payload) ]
  in
  String.concat "" [ "SLNP"; fields; String.sub (Sha256.digest (fields ^ payload)) 0 8; payload ]

let frame_reference_props =
  [ prop "encode matches the reference encoder" ~count:60
      QCheck2.Gen.(triple (int_range 0 255) (int_range 0 70_000) int)
      (fun (tag, len, seed) ->
        let st = Random.State.make [| seed |] in
        let payload = String.init len (fun _ -> Char.chr (Random.State.int st 256)) in
        Net.Frame.encode ~tag payload = reference_frame ~tag payload) ]

(* A Build-sized frame (487 KB) through a socketpair: the writer blocks
   until the reader drains it, so each side runs on its own thread. *)
let test_frame_read_large () =
  let payload = String.init 487_000 (fun i -> Char.chr (((i * 7) + (i / 997)) land 0xff)) in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close a; Unix.close b)
    (fun () ->
      let writer = Thread.create (fun () -> Net.Frame.write a ~tag:9 payload) () in
      let got = Net.Frame.read ~timeout:20. b in
      Thread.join writer;
      match got with
      | Ok msg ->
        Alcotest.(check int) "tag" 9 msg.Net.Frame.tag;
        Alcotest.(check bool) "payload" true (msg.Net.Frame.payload = payload)
      | Error e -> Alcotest.failf "read: %s" (Net.Frame.error_to_string e))

let sample_payloads =
  [ ""; "a"; "some payload bytes"; String.make 300 '\x17'; "trailing \x00\x01\x02" ]

let flip_bit s bit =
  let b = Bytes.of_string s in
  let i = bit / 8 mod Bytes.length b in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
  Bytes.to_string b

let frame_corruption_props =
  [ prop "any single bit flip is rejected" ~count:400
      QCheck2.Gen.(pair (int_range 0 4) nat)
      (fun (which, bit) ->
        let frame = Net.Frame.encode ~tag:1 (List.nth sample_payloads which) in
        match Net.Frame.decode (flip_bit frame bit) with
        | Error _ -> true
        | Ok (msg, _) ->
          (* The flipped frame may only parse if the flip never landed
             (impossible: we always flip one bit). *)
          QCheck2.Test.fail_reportf "parsed tag %d, %d payload bytes" msg.Net.Frame.tag
            (String.length msg.Net.Frame.payload));
    prop "any strict prefix is rejected" ~count:200
      QCheck2.Gen.(pair (int_range 0 4) nat)
      (fun (which, cut) ->
        let frame = Net.Frame.encode ~tag:1 (List.nth sample_payloads which) in
        let cut = cut mod String.length frame in
        match Net.Frame.decode (String.sub frame 0 cut) with
        | Error (Net.Frame.Truncated | Net.Frame.Bad_magic) -> true
        | Error e -> QCheck2.Test.fail_reportf "unexpected: %s" (Net.Frame.error_to_string e)
        | Ok _ -> QCheck2.Test.fail_reportf "truncated frame parsed");
    prop "garbage never parses, never raises" ~count:300
      QCheck2.Gen.(string_size (int_range 0 64))
      (fun s ->
        match Net.Frame.decode s with
        | Error _ -> true
        | Ok _ -> String.length s >= Net.Frame.header_bytes && String.sub s 0 4 = "SLNP") ]

(* --- wire codecs ------------------------------------------------------------ *)

(* Real protocol artifacts to push through the codecs. *)
let sample_tokens =
  lazy
    (let m = Lazy.force mirror_system in
     User.gen_tokens ~rng:(Protocol.rng m) (Protocol.user m) (q 32 Slicer_types.Lt))

let sample_requests =
  lazy
    (* A dedicated little owner, so building sample shipments never
       perturbs the mirror system the e2e answers come from. *)
    (let rng = Drbg.create ~seed:"wire-samples" in
     let keys = Keys.generate ~tdp_bits:512 ~rng () in
     let acc_params = Rsa_acc.setup ~rng ~bits:512 () in
     let owner = Owner.create ~width ~rng ~acc_params ~keys () in
     let shipment = Owner.build owner (Gen.uniform_records ~rng ~width 5) in
     [ Wire.Hello { client = "alice"; proto = Wire.proto_version };
       Wire.Search
         { client = "alice"; request_id = "alice#7"; batched = true;
           tokens = Lazy.force sample_tokens; trace = None };
       Wire.Build
         { client = "owner"; request_id = "owner#1";
           width;
           payment = 1000;
           acc = Owner.acc_params owner;
           tdp_n = keys.Keys.tdp_public.Rsa_tdp.pn;
           tdp_e = keys.Keys.tdp_public.Rsa_tdp.e;
           user_k = (Keys.for_user keys).Keys.u_k;
           user_k_r = (Keys.for_user keys).Keys.u_k_r;
           shipment;
           trapdoor = Owner.export_trapdoor_state owner; trace = None };
       Wire.Insert
         { client = "owner"; request_id = "owner#2";
           shipment; trapdoor = Owner.export_trapdoor_state owner; trace = None };
       Wire.Ping;
       Wire.Stats ])

let trapdoor_list (t : Owner.trapdoor_state) =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [])

let token_blobs ts = List.map Slicer_types.token_bytes ts

let check_request_roundtrip (req : Wire.request) =
  match Wire.decode_request (Wire.encode_request req) with
  | None -> Alcotest.fail "request did not round-trip"
  | Some req' ->
    (match (req, req') with
     | Wire.Hello a, Wire.Hello b -> Alcotest.(check string) "client" a.client b.client
     | Wire.Ping, Wire.Ping -> ()
     | Wire.Stats, Wire.Stats -> ()
     | Wire.Search a, Wire.Search b ->
       Alcotest.(check string) "client" a.client b.client;
       Alcotest.(check string) "request id" a.request_id b.request_id;
       Alcotest.(check bool) "batched" a.batched b.batched;
       Alcotest.(check (list string)) "tokens" (token_blobs a.tokens) (token_blobs b.tokens)
     | Wire.Build a, Wire.Build b ->
       Alcotest.(check string) "client" a.client b.client;
       Alcotest.(check string) "request id" a.request_id b.request_id;
       Alcotest.(check int) "width" a.width b.width;
       Alcotest.(check int) "payment" a.payment b.payment;
       Alcotest.(check bool) "acc modulus" true
         (Bigint.equal a.acc.Rsa_acc.modulus b.acc.Rsa_acc.modulus);
       Alcotest.(check bool) "tdp n" true (Bigint.equal a.tdp_n b.tdp_n);
       Alcotest.(check string) "user k" a.user_k b.user_k;
       Alcotest.(check bool) "shipment ac" true
         (Bigint.equal a.shipment.Owner.sh_ac b.shipment.Owner.sh_ac);
       Alcotest.(check int) "shipment entries" (List.length (Owner.shipment_entries a.shipment))
         (List.length (Owner.shipment_entries b.shipment));
       Alcotest.(check string) "shipment bytes" (Persist.shipment_to_bytes a.shipment)
         (Persist.shipment_to_bytes b.shipment);
       Alcotest.(check bool) "trapdoor state" true
         (trapdoor_list a.trapdoor = trapdoor_list b.trapdoor)
     | Wire.Insert a, Wire.Insert b ->
       Alcotest.(check string) "client" a.client b.client;
       Alcotest.(check string) "request id" a.request_id b.request_id;
       Alcotest.(check bool) "shipment ac" true
         (Bigint.equal a.shipment.Owner.sh_ac b.shipment.Owner.sh_ac);
       Alcotest.(check bool) "trapdoor state" true
         (trapdoor_list a.trapdoor = trapdoor_list b.trapdoor)
     | _ -> Alcotest.fail "request decoded to a different constructor")

let test_request_roundtrips () = List.iter check_request_roundtrip (Lazy.force sample_requests)

(* A Build or a Welcome carrying a modulus no accumulator can use
   (even, 1 or 0) does not decode, and the decoder raises nothing. A
   Welcome with an even trapdoor modulus does not decode either, and a
   Build with one is refused as a bad request. *)
let test_degenerate_modulus_refused () =
  let with_piece i v s =
    match Bytesutil.split s with
    | Some pieces -> Bytesutil.concat (List.mapi (fun j p -> if j = i then v else p) pieces)
    | None -> Alcotest.fail "the encoding did not split into pieces"
  in
  let build =
    List.find (function Wire.Build _ -> true | _ -> false) (Lazy.force sample_requests)
  in
  let welcome =
    Net.Service.handle (Lazy.force service)
      (Wire.Hello { client = "modulus-probe"; proto = Wire.proto_version })
  in
  let build_modulus, welcome_modulus =
    match (build, welcome) with
    | Wire.Build b, Wire.Welcome w -> (b.acc.Rsa_acc.modulus, w.Wire.pv_acc.Rsa_acc.modulus)
    | _ -> Alcotest.fail "expected a Build and a Welcome"
  in
  let build_bytes = Wire.encode_request build and welcome_bytes = Wire.encode_response welcome in
  (* Piece 5 of a Build and piece 4 of a Welcome hold the modulus: put
     back unchanged, both still decode. *)
  let build_with m = Wire.decode_request (with_piece 5 (Bigint.to_bytes_be m) build_bytes) in
  let welcome_with m = Wire.decode_response (with_piece 4 (Bigint.to_bytes_be m) welcome_bytes) in
  Alcotest.(check bool) "the Build's own modulus decodes" true
    (Option.is_some (build_with build_modulus));
  Alcotest.(check bool) "the Welcome's own modulus decodes" true
    (Option.is_some (welcome_with welcome_modulus));
  List.iter
    (fun (name, m) ->
      Alcotest.(check bool) (name ^ ": Build refused") true (Option.is_none (build_with m));
      Alcotest.(check bool) (name ^ ": Welcome refused") true (Option.is_none (welcome_with m));
      Alcotest.check_raises (name ^ ": no params")
        (Invalid_argument "Rsa_acc.params_of_parts: the modulus must be odd and at least 3")
        (fun () -> ignore (Rsa_acc.params_of_parts ~modulus:m ~generator:Bigint.two)))
    [ ("even", Bigint.succ build_modulus); ("one", Bigint.one); ("zero", Bigint.zero) ];
  (* Piece 6 of a Welcome holds the trapdoor modulus. *)
  match build with
  | Wire.Build b ->
    let even_tdp = Bigint.succ b.tdp_n in
    Alcotest.(check bool) "an even trapdoor modulus: Welcome refused" true
      (Option.is_none
         (Wire.decode_response (with_piece 6 (Bigint.to_bytes_be even_tdp) welcome_bytes)));
    (match Net.Service.handle (Net.Service.create ()) (Wire.Build { b with tdp_n = even_tdp }) with
     | Wire.Refused { code = Wire.Bad_request; _ } -> ()
     | Wire.Refused { code; detail } ->
       Alcotest.failf "an even trapdoor modulus: Build refused (%s) %s"
         (Wire.err_code_to_string code) detail
     | _ -> Alcotest.fail "an even trapdoor modulus: Build accepted")
  | _ -> Alcotest.fail "expected a Build"

(* A genuine search reply, produced by the service itself. *)
let sample_found =
  lazy
    (let svc = Lazy.force service in
     match Net.Service.handle svc (Wire.Hello { client = "codec-probe"; proto = Wire.proto_version }) with
     | Wire.Welcome _ ->
       (match
          Net.Service.handle svc
            (Wire.Search
               { client = "codec-probe"; request_id = "codec-probe#1"; batched = false;
                 tokens = Lazy.force sample_tokens; trace = None })
        with
        | Wire.Found _ as r -> r
        | r -> Alcotest.failf "expected Found, got %s" (String.sub (Wire.encode_response r) 0 8))
     | _ -> Alcotest.fail "hello refused")

let test_response_roundtrips () =
  (* Found: claims, receipt and Ac all survive; canonical bytes agree. *)
  let found = Lazy.force sample_found in
  let bytes = Wire.encode_response found in
  (match Wire.decode_response bytes with
   | Some (Wire.Found r) ->
     Alcotest.(check string) "request id" "codec-probe#1" r.Wire.sr_request_id;
     Alcotest.(check string) "re-encoding is canonical" bytes
       (Wire.encode_response (Wire.Found r));
     (match r.Wire.sr_receipt.Vm.r_output with
      | Ok [ "paid" ] -> ()
      | _ -> Alcotest.fail "settlement output lost in transit")
   | _ -> Alcotest.fail "Found did not round-trip");
  (* The simple constructors. *)
  List.iter
    (fun resp ->
      match Wire.decode_response (Wire.encode_response resp) with
      | Some resp' -> Alcotest.(check bool) "simple response" true (resp = resp')
      | None -> Alcotest.fail "simple response did not round-trip")
    [ Wire.Pong;
      Wire.Accepted { generation = 3 };
      Wire.Stats_reply { st_json = "{\"counters\": {}}"; st_text = "# TYPE x counter\nx 1\n" };
      Wire.Stats_reply { st_json = ""; st_text = "" };
      Wire.Refused { code = Wire.Busy; detail = "over capacity" };
      Wire.Refused { code = Wire.Bad_request; detail = "" };
      Wire.Refused { code = Wire.Not_ready; detail = "no database" };
      Wire.Refused { code = Wire.Already_built; detail = "x" };
      Wire.Refused { code = Wire.Unknown_user; detail = "who" };
      Wire.Refused { code = Wire.Internal; detail = "boom" } ]

(* Every message is framed in one pass from its pieces: the frame a
   server or client writes equals, byte for byte, [Frame.encode] of the
   whole payload and the plain-concat reference frame, for every
   response constructor (routed Founds with parts and settle info
   included) and every request; and the payload decodes back to a
   message that re-encodes to it. *)
let test_frames_from_pieces () =
  let svc = Lazy.force service in
  let r =
    match Lazy.force sample_found with
    | Wire.Found r -> r
    | _ -> Alcotest.fail "expected a Found"
  in
  let tree = Merkle.build [ "leaf-0"; "leaf-1"; "leaf-2" ] in
  let pending =
    { Wire.si_batch = "batch-7"; si_index = 1; si_leaf = "leaf-1"; si_root = None;
      si_proof = None }
  in
  let committed =
    { pending with Wire.si_root = Some (Merkle.root tree); si_proof = Some (Merkle.prove tree 1) }
  in
  let part shard shp_settle shp_batch_witness =
    { Wire.shp_shard = shard; shp_claims = r.Wire.sr_claims; shp_batch_witness;
      shp_ac = r.Wire.sr_ac; shp_receipt = r.Wire.sr_receipt; shp_settle }
  in
  let parts = [ part 0 (Some committed) None; part 1 None (Some (Bigint.of_int 77)) ] in
  let span id parent tags =
    { Trace.sp_trace = 0x5eedL; sp_id = id; sp_parent = parent; sp_name = "service.search";
      sp_instance = "shard-1"; sp_start_ns = 1_000 * id; sp_end_ns = 1_000 * (id + 3);
      sp_tags = tags }
  in
  let responses =
    [ ("Welcome",
       Net.Service.handle svc (Wire.Hello { client = "frame-probe"; proto = Wire.proto_version }));
      ("Found", Wire.Found r);
      ("routed Found", Wire.Found { r with Wire.sr_parts = parts });
      ("routed Found with settle info",
       Wire.Found { r with Wire.sr_parts = parts; sr_settle = Some pending });
      ("Accepted", Wire.Accepted { generation = 2 });
      ("Receipt unknown", Wire.Receipt_reply Wire.Rcp_unknown);
      ("Receipt pending", Wire.Receipt_reply (Wire.Rcp_pending pending));
      ("Receipt committed", Wire.Receipt_reply (Wire.Rcp_committed committed));
      ("Receipt final", Wire.Receipt_reply (Wire.Rcp_final { batch = "batch-7" }));
      ("Receipt refunded", Wire.Receipt_reply (Wire.Rcp_refunded { batch = "batch-7" }));
      ("Disputed", Wire.Disputed { dp_slashed = true; dp_receipt = r.Wire.sr_receipt });
      ("Pong", Wire.Pong);
      ("Stats", Wire.Stats_reply { st_json = Obs.Export.to_json (); st_text = Obs.Export.to_prometheus () });
      ("Traces",
       Wire.Traces_reply
         { tr_spans = [ span 1 0 [ ("shard", "1"); ("cached", "true") ]; span 2 1 [] ] });
      ("empty Traces", Wire.Traces_reply { tr_spans = [] });
      ("Refused", Wire.Refused { code = Wire.Busy; detail = "over 64 requests in flight" }) ]
  in
  let check_frame what ~tag payload one_pass =
    Alcotest.(check string) (what ^ ": Frame.encode") (Net.Frame.encode ~tag payload) one_pass;
    Alcotest.(check string) (what ^ ": reference frame") (reference_frame ~tag payload) one_pass
  in
  List.iter
    (fun (what, resp) ->
      let payload = Wire.encode_response resp in
      check_frame what ~tag:Wire.response_tag payload
        (Net.Frame.encode_sized ~tag:Wire.response_tag (Wire.response_sized resp));
      match Wire.decode_response payload with
      | Some back -> Alcotest.(check string) (what ^ ": re-encodes") payload (Wire.encode_response back)
      | None -> Alcotest.failf "%s: the payload does not decode" what)
    responses;
  let requests =
    Lazy.force sample_requests
    @ [ Wire.Search
          { client = "alice"; request_id = "alice#8"; batched = false;
            tokens = Lazy.force sample_tokens;
            trace = Some { Trace.w_trace = 0x5eedL; w_parent = 4 } };
        Wire.Receipt { client = "alice"; request_id = "alice#7" };
        Wire.Dispute
          { client = "alice"; request_id = "alice#7"; shard = 1;
            claims_blob = Slicer_contract.encode_claims r.Wire.sr_claims;
            batch_witness = Some (Bigint.of_int 77) };
        Wire.Traces ]
  in
  List.iter
    (fun req ->
      check_frame "request" ~tag:Wire.request_tag (Wire.encode_request req)
        (Net.Frame.encode_sized ~tag:Wire.request_tag (Wire.request_sized req)))
    requests

(* A live Stats reply is framed from the registry's buffer, where the
   JSON and the text are rendered back to back: its frame must be the
   Stats_reply frame of the same two renderings. A private registry
   holds still between the renderings (the default one counts the
   SHA-256 blocks each frame's checksum hashes). *)
let test_live_stats_frame () =
  let registry = Obs.Registry.create () in
  Obs.Counter.add (Obs.counter ~registry ~help:"a \"quoted\" help" "probe_requests_total") 7;
  Obs.Gauge.set (Obs.gauge ~registry "probe_open") 3;
  let h = Obs.histogram ~registry ~units:Obs.Histogram.Seconds "probe_latency_seconds" in
  List.iter (Obs.Histogram.record h) [ 1_000; 250_000; 9_000_000 ];
  let live =
    Obs.Export.exposition ~registry (fun buf ~json_len ->
        let len, write = Wire.stats_payload buf ~json_len in
        Net.Frame.encode_with ~tag:Wire.response_tag len write)
  in
  let reply =
    Wire.Stats_reply
      { st_json = Obs.Export.to_json ~registry (); st_text = Obs.Export.to_prometheus ~registry () }
  in
  Alcotest.(check string) "live frame" (Net.Frame.encode ~tag:Wire.response_tag (Wire.encode_response reply)) live;
  (* The default registry's live reply decodes as a Stats_reply. *)
  match Net.Frame.decode (Net.Server.frame Wire.Stats_live) with
  | Ok ({ Net.Frame.payload; _ }, _) -> (
    match Wire.decode_response payload with
    | Some (Wire.Stats_reply { st_json; st_text }) ->
      Alcotest.(check bool) "both renderings present" true (st_json <> "" && st_text <> "")
    | _ -> Alcotest.fail "a live Stats frame does not decode as a Stats_reply")
  | Error e -> Alcotest.failf "a live Stats frame: %s" (Net.Frame.error_to_string e)

(* Feeds [s] to a fresh [Frame.Decoder] one byte at a time, as a slow
   socket would: [Ok n] when it parsed [n] frames and waits for more
   bytes, or its first error. *)
let trickle s =
  let d = Net.Frame.Decoder.create () in
  let rec drain n =
    match Net.Frame.Decoder.next d with
    | Ok (Some _) -> drain (n + 1)
    | Ok None -> Ok n
    | Error e -> Error e
  in
  let rec go i n =
    if i = String.length s then Ok n
    else begin
      Net.Frame.Decoder.feed d (String.make 1 s.[i]);
      match drain n with Ok n -> go (i + 1) n | Error e -> Error e
    end
  in
  go 0 0

(* [Frame.decode] and a trickled [Frame.Decoder] agree on a damaged
   frame: neither parses it, and both report the same error, except that
   where [decode] sees a truncated frame the decoder is still waiting. *)
let rejected_alike s =
  match (Net.Frame.decode s, trickle s) with
  | Error Net.Frame.Truncated, Ok 0 -> true
  | Error e, Error e' -> e = e'
  | _ -> false

let codec_corruption_props =
  (* Every codec's encoding rides inside a frame; flipping any bit of
     that frame — or truncating it, or lying about its length — must
     yield a decode error, never an exception and never a parse, from
     [Frame.decode] and the event loop's incremental decoder alike. *)
  let framed =
    lazy
      (Wire.encode_response (Lazy.force sample_found)
       :: List.map Wire.encode_request (Lazy.force sample_requests)
       |> List.map (fun payload -> Net.Frame.encode ~tag:Wire.request_tag payload))
  in
  [ prop "framed messages: bit flips rejected" ~count:300
      QCheck2.Gen.(pair (int_range 0 6) nat)
      (fun (which, bit) ->
        let frame = List.nth (Lazy.force framed) which in
        rejected_alike (flip_bit frame bit));
    prop "framed messages: truncation rejected" ~count:150
      QCheck2.Gen.(pair (int_range 0 6) nat)
      (fun (which, cut) ->
        let frame = List.nth (Lazy.force framed) which in
        rejected_alike (String.sub frame 0 (cut mod String.length frame)));
    prop "framed messages: length lies rejected" ~count:150
      QCheck2.Gen.(pair (int_range 0 6) (int_range 6 9))
      (fun (which, len_byte) ->
        let frame = Bytes.of_string (List.nth (Lazy.force framed) which) in
        Bytes.set frame len_byte
          (Char.chr (Char.code (Bytes.get frame len_byte) lxor 0xff));
        rejected_alike (Bytes.to_string frame));
    (* Below the frame (no checksum): decoders must never raise, on any
       input, and mutations of valid encodings must decode all-or-nothing. *)
    prop "bare codecs never raise" ~count:400
      QCheck2.Gen.(pair (int_range 0 7) (pair nat (string_size (int_range 0 80))))
      (fun (which, (bit, garbage)) ->
        let reqs = Lazy.force sample_requests in
        let subject =
          if which < List.length reqs then
            flip_bit (Wire.encode_request (List.nth reqs which)) bit
          else if which = 6 then flip_bit (Wire.encode_response (Lazy.force sample_found)) bit
          else garbage
        in
        ignore (Wire.decode_request subject);
        ignore (Wire.decode_response subject);
        ignore (Persist.tokens_of_bytes subject);
        ignore (Slicer_contract.decode_claims subject);
        ignore (Persist.receipt_of_bytes subject);
        true) ]

let test_persist_message_codecs () =
  (* The satellite codecs on their own: tokens, claims, receipt. *)
  let tokens = Lazy.force sample_tokens in
  (match Persist.tokens_of_bytes (Persist.tokens_to_bytes tokens) with
   | Some tokens' ->
     Alcotest.(check (list string)) "tokens" (token_blobs tokens) (token_blobs tokens')
   | None -> Alcotest.fail "tokens did not round-trip");
  let m = Lazy.force mirror_system in
  let claims = Cloud.search (Protocol.cloud m) tokens in
  (match Slicer_contract.decode_claims (Slicer_contract.encode_claims claims) with
   | Some claims' ->
     Alcotest.(check string) "claims" (Slicer_contract.encode_claims claims)
       (Slicer_contract.encode_claims claims')
   | None -> Alcotest.fail "claims did not round-trip");
  List.iter
    (fun (output : (string list, string) result) ->
      let receipt =
        { Vm.r_txn_hash = "\x01\xffhash"; r_gas_used = 12345;
          r_events = [ "Settled(paid)"; "" ]; r_output = output }
      in
      match Persist.receipt_of_bytes (Persist.receipt_to_bytes receipt) with
      | Some r -> Alcotest.(check bool) "receipt" true (r = receipt)
      | None -> Alcotest.fail "receipt did not round-trip")
    [ Ok [ "paid" ]; Ok []; Error "no pending request" ]

(* --- backoff schedule ------------------------------------------------------- *)

let test_backoff_schedule () =
  let cfg =
    { Net.Client.default_config with backoff_base = 0.1; backoff_max = 1.0; jitter = 0.5 }
  in
  (* Midpoint of the jitter band doubles cleanly, then caps. *)
  List.iter
    (fun (attempt, expected) ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "attempt %d" attempt)
        expected
        (Net.Client.backoff_delay cfg ~rand:0.5 ~attempt))
    [ (1, 0.1); (2, 0.2); (3, 0.4); (4, 0.8); (5, 1.0); (9, 1.0) ]

let backoff_props =
  [ prop "delay stays inside the jitter band" ~count:300
      QCheck2.Gen.(pair (int_range 1 12) (float_bound_exclusive 1.0))
      (fun (attempt, rand) ->
        let cfg = Net.Client.default_config in
        let d = Net.Client.backoff_delay cfg ~rand ~attempt in
        let nominal =
          Float.min cfg.Net.Client.backoff_max
            (cfg.Net.Client.backoff_base *. (2. ** float_of_int (attempt - 1)))
        in
        d >= nominal *. 0.75 -. 1e-9 && d <= nominal *. 1.25 +. 1e-9) ]

(* --- service semantics (transport-free) ------------------------------------- *)

let test_idempotent_settlement () =
  let svc = Lazy.force service in
  let m = Lazy.force mirror_system in
  (match Net.Service.handle svc (Wire.Hello { client = "idem"; proto = Wire.proto_version }) with
   | Wire.Welcome _ -> ()
   | _ -> Alcotest.fail "hello refused");
  let tokens = User.gen_tokens ~rng:(Protocol.rng m) (Protocol.user m) (q 20 Slicer_types.Gt) in
  let req =
    Wire.Search { client = "idem"; request_id = "idem#1"; batched = false; tokens; trace = None }
  in
  let settled_before = Net.Service.searches_settled svc in
  let first = Net.Service.handle svc req in
  let again = Net.Service.handle svc req in
  (match first with
   | Wire.Found r ->
     Alcotest.(check string) "id echoed" "idem#1" r.Wire.sr_request_id;
     (match r.Wire.sr_receipt.Vm.r_output with
      | Ok [ "paid" ] -> ()
      | _ -> Alcotest.fail "first settlement not paid")
   | _ -> Alcotest.fail "search refused");
  (* The retry replays the cached settlement: identical bytes, and the
     escrow was only touched once. *)
  Alcotest.(check string) "replayed reply is byte-identical"
    (Wire.encode_response first) (Wire.encode_response again);
  Alcotest.(check int) "settled exactly once" (settled_before + 1)
    (Net.Service.searches_settled svc)

let test_replay_confined_to_client () =
  let svc = Lazy.force service in
  let m = Lazy.force mirror_system in
  (match Net.Service.handle svc (Wire.Hello { client = "replay-a"; proto = Wire.proto_version }) with
   | Wire.Welcome _ -> ()
   | _ -> Alcotest.fail "hello refused");
  let tokens =
    User.gen_tokens ~rng:(Protocol.rng m) (Protocol.user m) (q 40 Slicer_types.Lt)
  in
  let search client request_id =
    Net.Service.handle svc (Wire.Search { client; request_id; batched = false; tokens; trace = None })
  in
  (match search "replay-a" "shared#1" with
   | Wire.Found _ -> ()
   | _ -> Alcotest.fail "victim search refused");
  (* An un-helloed stranger replaying the victim's predictable request
     id is turned away before the cache is even consulted. *)
  (match search "replay-mallory" "shared#1" with
   | Wire.Refused { code = Wire.Unknown_user; _ } -> ()
   | Wire.Found _ -> Alcotest.fail "stranger was handed a cached settlement"
   | _ -> Alcotest.fail "unexpected reply to the stranger");
  (* A registered *other* client re-using the id gets its own fresh
     settlement (the cache key includes the client), not the replay. *)
  (match Net.Service.handle svc (Wire.Hello { client = "replay-b"; proto = Wire.proto_version }) with
   | Wire.Welcome _ -> ()
   | _ -> Alcotest.fail "hello refused");
  let settled_before = Net.Service.searches_settled svc in
  (match search "replay-b" "shared#1" with
   | Wire.Found _ -> ()
   | _ -> Alcotest.fail "other client's search refused");
  Alcotest.(check int) "fresh settlement, not a replay" (settled_before + 1)
    (Net.Service.searches_settled svc)

let test_token_past_generation_refused () =
  (* Algorithm 4 walks as many generations as a token claims, under the
     service lock. An honest token claims at most generation - 1, so one
     that claims the generation is refused before anything is escrowed,
     and an honest search after it still settles. *)
  let svc = Lazy.force service in
  let m = Lazy.force mirror_system in
  let generation =
    match Net.Service.handle svc (Wire.Hello { client = "bumper"; proto = Wire.proto_version }) with
    | Wire.Welcome p -> p.Wire.pv_generation
    | _ -> Alcotest.fail "hello refused"
  in
  let tokens = User.gen_tokens ~rng:(Protocol.rng m) (Protocol.user m) (q 25 Slicer_types.Lt) in
  let bumped =
    match tokens with
    | st :: rest -> { st with Slicer_types.st_updates = generation } :: rest
    | [] -> Alcotest.fail "the query generated no token"
  in
  let search request_id tokens =
    Net.Service.handle svc
      (Wire.Search { client = "bumper"; request_id; batched = false; tokens; trace = None })
  in
  let settled_before = Net.Service.searches_settled svc in
  (match search "bumper#1" bumped with
   | Wire.Refused { code = Wire.Bad_request; detail } ->
     Alcotest.(check string) "the refusal names both numbers"
       (Printf.sprintf "a token claims %d updates at generation %d" generation generation)
       detail
   | Wire.Found _ -> Alcotest.fail "a token past the generation was searched"
   | _ -> Alcotest.fail "unexpected reply to a token past the generation");
  Alcotest.(check int) "nothing settled" settled_before (Net.Service.searches_settled svc);
  match search "bumper#2" tokens with
  | Wire.Found r ->
    (match r.Wire.sr_receipt.Vm.r_output with
     | Ok [ "paid" ] -> ()
     | _ -> Alcotest.fail "the honest search was not paid")
  | _ -> Alcotest.fail "the honest search was refused"

let test_idempotent_build_and_insert () =
  (* A private service bootstrapped over the wire messages alone, so the
     retries here cannot perturb the shared loopback fixtures. *)
  let svc = Net.Service.create () in
  let rng = Drbg.create ~seed:"idem-owner" in
  let keys = Keys.generate ~tdp_bits:512 ~rng () in
  let acc_params = Rsa_acc.setup ~rng ~bits:512 () in
  let owner = Owner.create ~width ~rng ~acc_params ~keys () in
  let records = Gen.uniform_records ~rng ~width 12 in
  let shipment = Owner.build owner records in
  let build_req request_id =
    Wire.Build
      { client = "idem-owner"; request_id; width; payment = 500; acc = acc_params;
        tdp_n = keys.Keys.tdp_public.Rsa_tdp.pn; tdp_e = keys.Keys.tdp_public.Rsa_tdp.e;
        user_k = (Keys.for_user keys).Keys.u_k; user_k_r = (Keys.for_user keys).Keys.u_k_r;
        shipment; trapdoor = Owner.export_trapdoor_state owner; trace = None }
  in
  (match Net.Service.handle svc (build_req "o#1") with
   | Wire.Accepted { generation } -> Alcotest.(check int) "built" 1 generation
   | _ -> Alcotest.fail "build refused");
  (* Lost-reply retry: the same id replays the accept, not Already_built. *)
  (match Net.Service.handle svc (build_req "o#1") with
   | Wire.Accepted { generation } -> Alcotest.(check int) "retry replayed the accept" 1 generation
   | Wire.Refused { code = Wire.Already_built; _ } -> Alcotest.fail "retried Build refused"
   | _ -> Alcotest.fail "unexpected reply to the retried Build");
  (* A genuinely new Build is still refused. *)
  (match Net.Service.handle svc (build_req "o#2") with
   | Wire.Refused { code = Wire.Already_built; _ } -> ()
   | _ -> Alcotest.fail "a second distinct Build was not refused");
  (* Insert applies once; the retry must not re-append the shipment's
     primes or double-bump the generation. *)
  let shipment2 = Owner.insert owner [ Slicer_types.record_of_value "idem-new" 3 ] in
  let insert_req =
    Wire.Insert
      { client = "idem-owner"; request_id = "o#3"; shipment = shipment2;
        trapdoor = Owner.export_trapdoor_state owner; trace = None }
  in
  (match Net.Service.handle svc insert_req with
   | Wire.Accepted { generation } -> Alcotest.(check int) "insert applied" 2 generation
   | _ -> Alcotest.fail "insert refused");
  (match Net.Service.handle svc insert_req with
   | Wire.Accepted { generation } -> Alcotest.(check int) "retry did not re-apply" 2 generation
   | _ -> Alcotest.fail "retried insert refused");
  Alcotest.(check int) "generation bumped exactly once" 2 (Net.Service.generation svc);
  (* Decisive: the cloud's prime multiset still matches the on-chain Ac.
     Had the retry re-applied the shipment, this settlement would be
     refused payment on chain. *)
  match Net.Service.handle svc (Wire.Hello { client = "idem-user"; proto = Wire.proto_version }) with
  | Wire.Welcome p ->
    let user =
      User.create ~keys:p.Wire.pv_user_keys ~width:p.Wire.pv_width p.Wire.pv_trapdoor
    in
    let tokens = User.gen_tokens ~rng user (q 3 Slicer_types.Eq) in
    (match
       Net.Service.handle svc
         (Wire.Search { client = "idem-user"; request_id = "u#1"; batched = false; tokens; trace = None })
     with
     | Wire.Found r ->
       (match r.Wire.sr_receipt.Vm.r_output with
        | Ok [ "paid" ] -> ()
        | _ -> Alcotest.fail "post-retry search was not paid: primes corrupted?")
     | _ -> Alcotest.fail "post-retry search refused")
  | _ -> Alcotest.fail "hello refused"

(* Ping, Stats and Traces read only process-wide state, so the service
   answers them without its lock: a burst of them leaves the lock-wait
   histogram's count where it was, while a Search still adds one. *)
let test_admin_requests_take_no_lock () =
  let svc = Lazy.force service in
  let m = Lazy.force mirror_system in
  let lock_waits () =
    (Obs.Histogram.snapshot (Obs.histogram (Obs.metric_of_span "service.lock_wait")))
      .Obs.Histogram.sn_count
  in
  (match Net.Service.handle svc (Wire.Hello { client = "admin-probe"; proto = Wire.proto_version }) with
   | Wire.Welcome _ -> ()
   | _ -> Alcotest.fail "hello refused");
  let waits0 = lock_waits () in
  for _ = 1 to 10 do
    List.iter
      (fun req -> ignore (Net.Service.handle svc req : Wire.response))
      [ Wire.Ping; Wire.Stats; Wire.Traces ]
  done;
  Alcotest.(check int) "no admin request waited for the lock" waits0 (lock_waits ());
  let tokens = User.gen_tokens ~rng:(Protocol.rng m) (Protocol.user m) (q 20 Slicer_types.Lt) in
  (match
     Net.Service.handle svc
       (Wire.Search
          { client = "admin-probe"; request_id = "admin-probe#1"; batched = false; tokens;
            trace = None })
   with
   | Wire.Found _ -> ()
   | _ -> Alcotest.fail "search refused");
  Alcotest.(check int) "a search waits for it once" (waits0 + 1) (lock_waits ())

(* A Stats scrape renders into its registry's own buffer and is framed
   from it, so handling and framing one allocates about its frame.
   Copying the JSON and the text out of the buffer before framing them
   read 2.1 times the frame; rendering with a [sprintf] per line into
   fresh buffers, then concatenating and framing the payload, 13-15
   times, with a minor collection forced on every scrape. The domain's
   allocation counter is exact only over a window that no minor
   collection interrupts, so the bound applies to the median of nine
   such windows. *)
let test_stats_scrape_allocation () =
  let svc = Lazy.force service in
  let collections () = (Gc.quick_stat ()).Gc.minor_collections in
  let scrape () =
    let c0 = collections () in
    let before = Gc.allocated_bytes () in
    let frame = Net.Server.frame (Net.Service.handle svc Wire.Stats) in
    let allocated = Gc.allocated_bytes () -. before in
    if collections () = c0 then Some (allocated, String.length frame) else None
  in
  let rec windows acc tries =
    if List.length acc = 9 then acc
    else if tries = 0 then
      Alcotest.failf "%d of 100 scrapes ran without a minor collection" (List.length acc)
    else windows (Option.fold ~none:acc ~some:(fun w -> w :: acc) (scrape ())) (tries - 1)
  in
  ignore (scrape ());
  let allocated, frame = List.nth (List.sort compare (windows [] 100)) 4 in
  let ratio = allocated /. float_of_int frame in
  if ratio > 1.5 then
    Alcotest.failf "one Stats scrape allocated %.0f bytes for a %d-byte frame (%.2fx, over 1.5x)"
      allocated frame ratio

let test_stats_counters_advance () =
  (* A retried Search through the service moves the Obs counters the
     way the admin endpoint reports: 2 requests, 1 settlement, 1
     idempotent replay. *)
  let svc = Lazy.force service in
  let m = Lazy.force mirror_system in
  (match Net.Service.handle svc (Wire.Hello { client = "stats-user"; proto = Wire.proto_version }) with
   | Wire.Welcome _ -> ()
   | _ -> Alcotest.fail "hello refused");
  let tokens =
    User.gen_tokens ~rng:(Protocol.rng m) (Protocol.user m) (q 12 Slicer_types.Gt)
  in
  let req =
    Wire.Search { client = "stats-user"; request_id = "stats-user#1"; batched = false; tokens; trace = None }
  in
  let requests0 = Obs.counter_value "slicer_net_requests_total" in
  let settled0 = Obs.counter_value "slicer_net_searches_settled_total" in
  let replays0 = Obs.counter_value "slicer_net_idempotent_replays_total" in
  (match Net.Service.handle svc req with
   | Wire.Found _ -> ()
   | _ -> Alcotest.fail "search refused");
  (match Net.Service.handle svc req with
   | Wire.Found _ -> ()
   | _ -> Alcotest.fail "retry refused");
  Alcotest.(check int) "both attempts counted as requests" (requests0 + 2)
    (Obs.counter_value "slicer_net_requests_total");
  Alcotest.(check int) "settled exactly once" (settled0 + 1)
    (Obs.counter_value "slicer_net_searches_settled_total");
  Alcotest.(check int) "the retry counted as a replay" (replays0 + 1)
    (Obs.counter_value "slicer_net_idempotent_replays_total")

let test_service_refusals () =
  let empty = Net.Service.create () in
  (match Net.Service.handle empty (Wire.Hello { client = "early"; proto = Wire.proto_version }) with
   | Wire.Refused { code = Wire.Not_ready; _ } -> ()
   | _ -> Alcotest.fail "hello before Build should be Not_ready");
  let svc = Lazy.force service in
  (match
     Net.Service.handle svc
       (Wire.Search
          { client = "never-registered"; request_id = "n#1"; batched = false;
            tokens = Lazy.force sample_tokens; trace = None })
   with
   | Wire.Refused { code = Wire.Unknown_user; _ } -> ()
   | _ -> Alcotest.fail "search without Hello should be Unknown_user");
  match
    Net.Service.handle svc
      (Wire.Dispute
         { client = "never-registered"; request_id = "n#1"; shard = 0; claims_blob = "";
           batch_witness = None })
  with
  | Wire.Refused { code = Wire.Unknown_user; _ } -> ()
  | _ -> Alcotest.fail "dispute without Hello should be Unknown_user"

(* --- loopback end-to-end ----------------------------------------------------- *)

let e2e_queries =
  [ q 32 Slicer_types.Lt; q 10 Slicer_types.Gt; q 63 Slicer_types.Lt; q 5 Slicer_types.Eq ]

let test_concurrent_clients_match_protocol () =
  ignore (Lazy.force server);
  let m = Lazy.force mirror_system in
  (* The in-process answers, from the twin system. *)
  let expected =
    List.map
      (fun query ->
        let out = Protocol.search m query in
        Alcotest.(check bool) "mirror verified" true out.Protocol.so_verified;
        (query, sorted out.Protocol.so_ids))
      e2e_queries
  in
  let results = Array.make 4 [] in
  let errors = Array.make 4 None in
  let worker i () =
    let c = client (Printf.sprintf "e2e-%d" i) in
    (try
       results.(i) <-
         List.map
           (fun query ->
             match Net.Client.search c query with
             | Ok out ->
               if not out.Protocol.so_verified then errors.(i) <- Some "unverified";
               sorted out.Protocol.so_ids
             | Error e ->
               errors.(i) <- Some (Net.Client.error_to_string e);
               [])
           e2e_queries
     with exn -> errors.(i) <- Some (Printexc.to_string exn));
    Net.Client.close c
  in
  let threads = List.init 4 (fun i -> Thread.create (worker i) ()) in
  List.iter Thread.join threads;
  Array.iteri
    (fun i err ->
      match err with
      | Some e -> Alcotest.failf "client %d: %s" i e
      | None ->
        List.iteri
          (fun j ids ->
            let query, expected_ids = List.nth expected j in
            check_ids
              (Format.asprintf "client %d: %a %d" i Slicer_types.pp_condition
                 query.Slicer_types.q_cond query.Slicer_types.q_value)
              expected_ids ids)
          results.(i))
    errors;
  (* Batched settlement over the wire agrees too. *)
  let c = client "e2e-batched" in
  (match Net.Client.search ~batched:true c (q 32 Slicer_types.Lt) with
   | Ok out ->
     Alcotest.(check bool) "batched verified" true out.Protocol.so_verified;
     check_ids "batched ids" (snd (List.hd expected)) out.Protocol.so_ids
   | Error e -> Alcotest.failf "batched search: %s" (Net.Client.error_to_string e));
  Net.Client.close c

let station_exn () =
  match Net.Service.station (Lazy.force service) with
  | Some st -> st
  | None -> Alcotest.fail "service has no station"

let balance addr =
  Vm.balance (Ledger.state (Station.ledger (station_exn ()))) addr

let test_tampering_server_refused_payment () =
  ignore (Lazy.force server);
  let st = station_exn () in
  let c = client "fair-1" in
  let query = q 32 Slicer_types.Lt in
  let payment = Net.Client.payment c in
  (* Honest first: the fee moves from the user's escrow to the cloud. *)
  let user_before = balance (Net.Client.user_address c) in
  let cloud_before = balance (Station.cloud_addr st) in
  (match Net.Client.search c query with
   | Ok out -> Alcotest.(check bool) "honest verified" true out.Protocol.so_verified
   | Error e -> Alcotest.failf "honest search: %s" (Net.Client.error_to_string e));
  Alcotest.(check int) "user paid" (user_before - payment) (balance (Net.Client.user_address c));
  Alcotest.(check int) "cloud earned" (cloud_before + payment) (balance (Station.cloud_addr st));
  (* Now the server's cloud flips a result byte: the chain refuses
     payment and the client surfaces the rejection. *)
  Cloud.set_behavior (Station.cloud st) Cloud.Tamper_result;
  Fun.protect
    ~finally:(fun () -> Cloud.set_behavior (Station.cloud st) Cloud.Honest)
    (fun () ->
      let user_before = balance (Net.Client.user_address c) in
      let cloud_before = balance (Station.cloud_addr st) in
      match Net.Client.search c query with
      | Ok out ->
        Alcotest.(check bool) "tampered rejected" false out.Protocol.so_verified;
        Alcotest.(check int) "user refunded" user_before (balance (Net.Client.user_address c));
        Alcotest.(check int) "cloud unpaid" cloud_before (balance (Station.cloud_addr st))
      | Error e -> Alcotest.failf "tampered search: %s" (Net.Client.error_to_string e));
  Net.Client.close c

(* --- the client decrypts only what it verified ----------------------------- *)

(* The shared service's twin, settling in batches of 64: its receipts
   stay in the open batch, so a reply's leaf is all a client checks. *)
let batched_service =
  lazy
    (seeded_service
       ~settle:
         { Settle_batch.sb_size = 64; sb_window_ms = 1e9; sb_deposit = 100_000;
           sb_dispute_blocks = 3 }
       ~seed:"net-twin" db)

(* [f] runs twice, on the eager service and on the batched one, each
   behind a server that answers a Search with [forge svc request] while
   [f] holds [forging] set and plainly otherwise. *)
let with_forging_servers name forge f =
  List.iter
    (fun (path, svc) ->
      let forging = Atomic.make false in
      let handler = function
        | Wire.Search _ as req when Atomic.get forging -> forge svc req
        | req -> Net.Service.handle svc req
      in
      let srv = Net.Server.start handler in
      Fun.protect ~finally:(fun () -> Net.Server.stop srv) @@ fun () ->
      let c =
        match Net.Client.connect ~name:(name ^ "-" ^ path) (Net.Server.endpoint srv) with
        | Ok c -> c
        | Error e -> Alcotest.failf "connect: %s" (Net.Client.error_to_string e)
      in
      Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () -> f ~path ~forging c)
    [ ("eager", Lazy.force service); ("deferred", Lazy.force batched_service) ]

(* The honest reply verifies; the forged one, served by the same server
   for the same query, must not. *)
let forged_reply_refused name ~query forge =
  with_forging_servers name forge @@ fun ~path ~forging c ->
  let search () =
    match Net.Client.search c query with
    | Ok out -> out
    | Error e -> Alcotest.failf "%s search: %s" path (Net.Client.error_to_string e)
  in
  let honest = search () in
  Alcotest.(check bool) (path ^ ": the honest reply verifies") true honest.Protocol.so_verified;
  Alcotest.(check bool) (path ^ ": the query has two tokens or more") true
    (honest.Protocol.so_token_count >= 2);
  Atomic.set forging true;
  Alcotest.(check bool) (path ^ ": the forged reply does not") false
    (search ()).Protocol.so_verified

(* A deferred reply's leaf, recomputed over the forged claims, as a
   lying server would commit it; the same coordinates otherwise. *)
let releaf ~request claims (r : Wire.search_reply) (si : Wire.settle_info) =
  { si with
    Wire.si_leaf =
      Slicer_contract.encode_leaf
        (Slicer_contract.receipt_leaf ~client:(fst request) ~request:(snd request) ~claims
           ~batch_witness:r.Wire.sr_batch_witness) }

(* The honest reply to a Search, with its on-chain request id. *)
let honest_reply svc req ~shard_id =
  match (req, Net.Service.handle svc req) with
  | Wire.Search { client; request_id; _ }, Wire.Found r ->
    let request = if shard_id then Net.Client.sub_id request_id 0 else request_id in
    (r, (client, Bytesutil.concat [ client; request ]))
  | _ -> Alcotest.fail "the service refused a search"

let test_reply_for_another_query () =
  (* Settled for tokens of another query: valid claims under Ac, and
     a true leaf, but not an answer to the tokens sent. *)
  let decoy =
    lazy
      (match
         Net.Service.handle (Lazy.force service)
           (Wire.Hello { client = "decoy"; proto = Wire.proto_version })
       with
       | Wire.Welcome p ->
         User.gen_tokens ~rng:(Drbg.create ~seed:"decoy")
           (User.create ~keys:p.Wire.pv_user_keys ~width:p.Wire.pv_width p.Wire.pv_trapdoor)
           (q 20 Slicer_types.Lt)
       | _ -> Alcotest.fail "decoy hello refused")
  in
  forged_reply_refused "another-query" ~query:(q 60 Slicer_types.Gt) (fun svc req ->
      match req with
      | Wire.Search s -> Net.Service.handle svc (Wire.Search { s with tokens = Lazy.force decoy })
      | _ -> Net.Service.handle svc req)

let test_reply_missing_a_claim () =
  forged_reply_refused "missing-claim" ~query:(q 60 Slicer_types.Gt) (fun svc req ->
      let r, request = honest_reply svc req ~shard_id:false in
      let claims = List.filteri (fun i _ -> i > 0) r.Wire.sr_claims in
      Wire.Found
        { r with
          Wire.sr_claims = claims;
          sr_settle = Option.map (releaf ~request claims r) r.Wire.sr_settle })

let test_routed_reply_with_an_uncovered_claim () =
  (* A one-part routed reply whose part verifies every claim but the
     first, which carries an injected result instead. *)
  forged_reply_refused "uncovered-claim" ~query:(q 60 Slicer_types.Gt) (fun svc req ->
      let r, request = honest_reply svc req ~shard_id:true in
      match r.Wire.sr_claims with
      | [] -> Alcotest.fail "no claim to forge"
      | first :: covered ->
        let injected =
          { first with
            Slicer_contract.results = first.Slicer_contract.results @ [ String.make 16 'i' ] }
        in
        Wire.Found
          { r with
            Wire.sr_claims = injected :: covered;
            sr_parts =
              [ { Wire.shp_shard = 0;
                  shp_claims = covered;
                  shp_batch_witness = r.Wire.sr_batch_witness;
                  shp_ac = r.Wire.sr_ac;
                  shp_receipt = r.Wire.sr_receipt;
                  shp_settle = Option.map (releaf ~request covered r) r.Wire.sr_settle } ];
            sr_settle = None })

(* A query with no token is answered by the user's own keyword state:
   nothing is sent, escrowed or settled. A Search that carries no
   token anyway is refused before any escrow. *)
let test_tokenless_query_sends_nothing () =
  ignore (Lazy.force server);
  let st = station_exn () in
  let ledger = Station.ledger st in
  let c = client "tokenless" in
  Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
  let accounts () = Vm.accounts (Ledger.state ledger) in
  let height = Ledger.height ledger and accounts0 = accounts () in
  (* No record is above 63, the width's largest value. *)
  (match Net.Client.search c (q 63 Slicer_types.Lt) with
   | Ok out ->
     Alcotest.(check bool) "the empty outcome" true (out = Protocol.no_tokens)
   | Error e -> Alcotest.failf "tokenless search: %s" (Net.Client.error_to_string e));
  (match
     Net.Service.handle (Lazy.force service)
       (Wire.Search
          { client = "tokenless"; request_id = "tokenless#0"; batched = false; tokens = [];
            trace = None })
   with
   | Wire.Refused { code = Wire.Bad_request; detail } ->
     Alcotest.(check string) "the refusal" "a search needs at least one token" detail
   | _ -> Alcotest.fail "a tokenless Search must be refused");
  Alcotest.(check int) "no block sealed" height (Ledger.height ledger);
  Alcotest.(check bool) "no balance moved" true (accounts () = accounts0)

let test_malformed_frames_get_structured_errors () =
  ignore (Lazy.force server);
  let ep = match endpoint () with
    | Net.Server.Tcp (h, p) -> Unix.ADDR_INET (Net.Server.resolve_host h, p)
    | Net.Server.Unix_socket p -> Unix.ADDR_UNIX p
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd ep;
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (* A valid frame with an unparseable payload: refused, but the
         connection survives (framing is still synchronized)... *)
      Net.Frame.write fd ~tag:Wire.request_tag "complete gibberish";
      (match Net.Frame.read ~timeout:5. fd with
       | Ok { Net.Frame.payload; _ } ->
         (match Wire.decode_response payload with
          | Some (Wire.Refused { code = Wire.Bad_request; _ }) -> ()
          | _ -> Alcotest.fail "expected a Bad_request refusal")
       | Error e -> Alcotest.failf "no reply to bad payload: %s" (Net.Frame.error_to_string e));
      (* ...and the very same connection still answers a valid Ping. *)
      Net.Frame.write fd ~tag:Wire.request_tag (Wire.encode_request Wire.Ping);
      (match Net.Frame.read ~timeout:5. fd with
       | Ok { Net.Frame.payload; _ } ->
         (match Wire.decode_response payload with
          | Some Wire.Pong -> ()
          | _ -> Alcotest.fail "expected Pong after recovery")
       | Error e -> Alcotest.failf "no pong: %s" (Net.Frame.error_to_string e));
      (* Raw garbage that is not a frame at all: structured refusal,
         then the server closes the unsyncable stream. *)
      ignore (Unix.write_substring fd "this is not a frame at all...." 0 30);
      (match Net.Frame.read ~timeout:5. fd with
       | Ok { Net.Frame.payload; _ } ->
         (match Wire.decode_response payload with
          | Some (Wire.Refused { code = Wire.Bad_request; _ }) -> ()
          | _ -> Alcotest.fail "expected a framing refusal")
       | Error e -> Alcotest.failf "no framing refusal: %s" (Net.Frame.error_to_string e));
      match Net.Frame.read ~timeout:5. fd with
      | Error (Net.Frame.Closed | Net.Frame.Truncated) -> ()
      | Ok _ -> Alcotest.fail "server kept an unsyncable stream open"
      | Error e -> Alcotest.failf "expected close, got %s" (Net.Frame.error_to_string e));
  (* A well-formed frame with a tag no request carries: refused, then
     closed as soon as the refusal is written. *)
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd ep;
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let reply () =
        match Net.Frame.read ~timeout:5. fd with
        | Ok { Net.Frame.payload; _ } -> Wire.decode_response payload
        | Error e -> Alcotest.failf "no reply: %s" (Net.Frame.error_to_string e)
      in
      Net.Frame.write fd ~tag:Wire.request_tag (Wire.encode_request Wire.Ping);
      (match reply () with Some Wire.Pong -> () | _ -> Alcotest.fail "expected Pong");
      Net.Frame.write fd ~tag:9 "not a request tag";
      (match reply () with
       | Some (Wire.Refused { code = Wire.Bad_request; _ }) -> ()
       | _ -> Alcotest.fail "expected a refusal of the frame tag");
      match Net.Frame.read ~timeout:5. fd with
      | Error (Net.Frame.Closed | Net.Frame.Truncated) -> ()
      | Ok _ -> Alcotest.fail "a reply past the refusal"
      | Error e -> Alcotest.failf "expected close, got %s" (Net.Frame.error_to_string e))

(* The revision-4 shipment form: a flat entry list and prime list, then
   the same entries again inside the keyword groups. *)
let revision4_shipment_bytes (sh : Owner.shipment) =
  Bytesutil.concat
    [ Bytesutil.concat
        (List.concat_map (fun (l, d) -> [ l; d ]) (Owner.shipment_entries sh));
      Bytesutil.concat (List.map Bigint.to_bytes_be (Owner.shipment_primes sh));
      Bigint.to_bytes_be sh.Owner.sh_ac;
      Bytesutil.concat (List.map Persist.group_to_bytes sh.Owner.sh_groups) ]

(* The revision-5 to -7 shipment form: [Ac] and the groups, no
   witnesses. *)
let revision7_shipment_bytes (sh : Owner.shipment) =
  Bytesutil.concat
    [ Bigint.to_bytes_be sh.Owner.sh_ac;
      Bytesutil.concat (List.map Persist.group_to_bytes sh.Owner.sh_groups) ]

(* A peer of another revision fails at the handshake with a structured
   refusal (revision 7, whose shipments carry no witnesses, included),
   and the Build/Insert bytes of a peer from before revision 8 are
   refused as malformed rather than decoded. *)
let test_older_revisions_refused () =
  ignore (Lazy.force server);
  Alcotest.(check int) "revision 8: a Build ships its witnesses" 8 Wire.proto_version;
  List.iter
    (fun proto ->
      match Net.Service.handle (Lazy.force service) (Wire.Hello { client = "old-peer"; proto }) with
      | Wire.Refused { code = Wire.Version_mismatch; _ } -> ()
      | _ -> Alcotest.failf "revision %d hello not refused as a version mismatch" proto)
    [ 1; Wire.proto_version - 1; Wire.proto_version + 1 ];
  let old_form form req =
    match req with
    | Wire.Build { shipment; _ } | Wire.Insert { shipment; _ } ->
      let current = Persist.shipment_to_bytes shipment in
      (match Bytesutil.split (Wire.encode_request req) with
       | Some pieces ->
         Bytesutil.concat
           (List.map (fun p -> if String.equal p current then form shipment else p) pieces)
       | None -> Alcotest.fail "request bytes did not split")
    | _ -> Alcotest.fail "not a shipment request"
  in
  let shipment_requests =
    List.filter
      (function Wire.Build _ | Wire.Insert _ -> true | _ -> false)
      (Lazy.force sample_requests)
  in
  Alcotest.(check int) "a Build and an Insert" 2 (List.length shipment_requests);
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (match endpoint () with
   | Net.Server.Tcp (h, p) -> Unix.connect fd (Unix.ADDR_INET (Net.Server.resolve_host h, p))
   | Net.Server.Unix_socket p -> Unix.connect fd (Unix.ADDR_UNIX p));
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let exchange payload =
        Net.Frame.write fd ~tag:Wire.request_tag payload;
        match Net.Frame.read ~timeout:5. fd with
        | Ok { Net.Frame.payload; _ } -> Wire.decode_response payload
        | Error e -> Alcotest.failf "no reply: %s" (Net.Frame.error_to_string e)
      in
      (match
         exchange
           (Wire.encode_request (Wire.Hello { client = "old-peer"; proto = Wire.proto_version - 1 }))
       with
       | Some (Wire.Refused { code = Wire.Version_mismatch; detail }) ->
         Alcotest.(check string) "the refusal names both revisions"
           (Printf.sprintf "client speaks protocol revision %d, this server speaks %d"
              (Wire.proto_version - 1) Wire.proto_version)
           detail
       | _ -> Alcotest.fail "the previous revision's hello over the wire not refused");
      List.iter
        (fun form ->
          List.iter
            (fun req ->
              let bytes = old_form form req in
              Alcotest.(check bool) "old-form payload does not decode" true
                (Wire.decode_request bytes = None);
              match exchange bytes with
              | Some (Wire.Refused { code = Wire.Bad_request; _ }) -> ()
              | _ -> Alcotest.fail "old-form shipment not refused as malformed")
            shipment_requests)
        [ revision4_shipment_bytes; revision7_shipment_bytes ])

let test_busy_refusal_exhausts () =
  (* A zero-capacity server refuses every request with Busy; the client
     retries with backoff and finally reports exhaustion. *)
  let config = { Net.Server.default_config with max_inflight = 0 } in
  let srv = Net.Server.start ~config (Net.Service.handle (Lazy.force service)) in
  Fun.protect
    ~finally:(fun () -> Net.Server.stop srv)
    (fun () ->
      let ccfg =
        { Net.Client.default_config with max_attempts = 3; backoff_base = 0.01 }
      in
      match Net.Client.connect ~config:ccfg ~name:"busy-probe" ~provision:false
              (Net.Server.endpoint srv)
      with
      | Error e -> Alcotest.failf "connect: %s" (Net.Client.error_to_string e)
      | Ok c ->
        (match Net.Client.ping c with
         | Error (Net.Client.Exhausted { attempts; _ }) ->
           Alcotest.(check int) "used every attempt" 3 attempts
         | Error e -> Alcotest.failf "expected exhaustion, got %s" (Net.Client.error_to_string e)
         | Ok _ -> Alcotest.fail "zero-capacity server answered");
        Net.Client.close c)

let test_kill_restart_mid_load () =
  (* Four clients under sustained load; the server dies mid-flight and
     comes back on the same port with the same service state. Every
     search must eventually succeed, verified, with oracle-correct ids. *)
  let small_db = List.filteri (fun i _ -> i < 25) db in
  let svc = seeded_service ~seed:"net-restart" small_db in
  let listener = Net.Server.bind_endpoint (Net.Server.Tcp ("127.0.0.1", 0)) in
  let port = Net.Server.bound_port listener in
  let config =
    { Net.Server.default_config with endpoint = Net.Server.Tcp ("127.0.0.1", port) }
  in
  let srv = ref (Net.Server.start ~config ~listener (Net.Service.handle svc)) in
  let queries = [ q 32 Slicer_types.Lt; q 10 Slicer_types.Gt; q 50 Slicer_types.Lt ] in
  let expected = List.map (fun query -> Slicer_types.reference_search small_db query) queries in
  let failures = Array.make 4 None in
  let worker i () =
    let ccfg =
      { Net.Client.default_config with
        max_attempts = 15; backoff_base = 0.05; backoff_max = 0.4; request_timeout = 20. }
    in
    match Net.Client.connect ~config:ccfg ~name:(Printf.sprintf "restart-%d" i)
            (Net.Server.Tcp ("127.0.0.1", port))
    with
    | Error e -> failures.(i) <- Some ("connect: " ^ Net.Client.error_to_string e)
    | Ok c ->
      List.iteri
        (fun round _ ->
          List.iteri
            (fun j query ->
              match Net.Client.search c query with
              | Ok out ->
                if not out.Protocol.so_verified then
                  failures.(i) <- Some (Printf.sprintf "round %d unverified" round)
                else if sorted out.Protocol.so_ids <> sorted (List.nth expected j) then
                  failures.(i) <- Some (Printf.sprintf "round %d wrong ids" round)
              | Error e ->
                failures.(i) <-
                  Some (Printf.sprintf "round %d: %s" round (Net.Client.error_to_string e)))
            queries)
        [ (); (); () ];
      Net.Client.close c
  in
  let threads = List.init 4 (fun i -> Thread.create (worker i) ()) in
  (* Kill the server mid-load, hold it down briefly, then restart it on
     the same port with the same (stateful) service. *)
  Thread.delay 0.35;
  Net.Server.stop !srv;
  Thread.delay 0.25;
  let rec rebind tries =
    match Net.Server.bind_endpoint (Net.Server.Tcp ("127.0.0.1", port)) with
    | l -> l
    | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) when tries > 0 ->
      Thread.delay 0.2;
      rebind (tries - 1)
  in
  let listener2 = rebind 20 in
  srv := Net.Server.start ~config ~listener:listener2 (Net.Service.handle svc);
  List.iter Thread.join threads;
  Net.Server.stop !srv;
  Array.iteri
    (fun i f -> match f with
       | Some msg -> Alcotest.failf "client %d: %s" i msg
       | None -> ())
    failures;
  Alcotest.(check bool) "service state survived the restart" true
    (Net.Service.searches_settled svc >= 12)

let test_build_and_insert_over_the_wire () =
  (* An owner bootstraps an *empty* server entirely over the wire, then
     a user provisions against it and searches. *)
  let svc = Net.Service.create () in
  let srv = Net.Server.start (Net.Service.handle svc) in
  Fun.protect
    ~finally:(fun () -> Net.Server.stop srv)
    (fun () ->
      let rng = Drbg.create ~seed:"wire-owner" in
      let keys = Keys.generate ~tdp_bits:512 ~rng () in
      let acc_params = Rsa_acc.setup ~rng ~bits:512 () in
      let owner = Owner.create ~width ~rng ~acc_params ~keys () in
      let records = Gen.uniform_records ~rng ~width 15 in
      let shipment = Owner.build owner records in
      let ep = Net.Server.endpoint srv in
      (match Net.Client.connect ~name:"wire-owner" ~provision:false ep with
       | Error e -> Alcotest.failf "owner connect: %s" (Net.Client.error_to_string e)
       | Ok oc ->
         (match
            Net.Client.build oc ~width ~payment:500 ~acc:acc_params
              ~tdp_public:keys.Keys.tdp_public ~user_keys:(Keys.for_user keys) ~shipment
              ~trapdoor:(Owner.export_trapdoor_state owner)
          with
          | Ok generation -> Alcotest.(check int) "built at generation 1" 1 generation
          | Error e -> Alcotest.failf "build: %s" (Net.Client.error_to_string e));
         (* A second Build must be refused: the database exists now. *)
         (match
            Net.Client.build oc ~width ~payment:500 ~acc:acc_params
              ~tdp_public:keys.Keys.tdp_public ~user_keys:(Keys.for_user keys) ~shipment
              ~trapdoor:(Owner.export_trapdoor_state owner)
          with
          | Error (Net.Client.Refused (Wire.Already_built, _)) -> ()
          | Ok _ -> Alcotest.fail "double Build accepted"
          | Error e -> Alcotest.failf "double build: %s" (Net.Client.error_to_string e));
         (* The user side: provision over the wire, search, verify. *)
         (match Net.Client.connect ~name:"wire-user" ep with
          | Error e -> Alcotest.failf "user connect: %s" (Net.Client.error_to_string e)
          | Ok uc ->
            let query = q 30 Slicer_types.Lt in
            (match Net.Client.search uc query with
             | Ok out ->
               Alcotest.(check bool) "verified" true out.Protocol.so_verified;
               check_ids "wire-built ids" (Slicer_types.reference_search records query)
                 out.Protocol.so_ids
             | Error e -> Alcotest.failf "search: %s" (Net.Client.error_to_string e));
            (* Insert over the wire; a refreshed user sees the new record. *)
            let fresh = Slicer_types.record_of_value "net-new" 3 in
            let shipment2 = Owner.insert owner [ fresh ] in
            (match
               Net.Client.insert oc ~shipment:shipment2
                 ~trapdoor:(Owner.export_trapdoor_state owner)
             with
             | Ok generation -> Alcotest.(check int) "generation bumped" 2 generation
             | Error e -> Alcotest.failf "insert: %s" (Net.Client.error_to_string e));
            (match Net.Client.refresh uc with
             | Ok () -> ()
             | Error e -> Alcotest.failf "refresh: %s" (Net.Client.error_to_string e));
            Alcotest.(check int) "client saw the new generation" 2 (Net.Client.generation uc);
            (match Net.Client.search uc (q 3 Slicer_types.Eq) with
             | Ok out ->
               Alcotest.(check bool) "verified after insert" true out.Protocol.so_verified;
               Alcotest.(check bool) "insert visible over the wire" true
                 (List.mem "net-new" out.Protocol.so_ids)
             | Error e -> Alcotest.failf "post-insert search: %s" (Net.Client.error_to_string e));
            Net.Client.close uc);
         Net.Client.close oc))

let test_read_timeout_kicks_idlers () =
  let config = { Net.Server.default_config with read_timeout = 0.3 } in
  let srv = Net.Server.start ~config (Net.Service.handle (Lazy.force service)) in
  Fun.protect
    ~finally:(fun () -> Net.Server.stop srv)
    (fun () ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (match Net.Server.endpoint srv with
       | Net.Server.Tcp (h, p) -> Unix.connect fd (Unix.ADDR_INET (Net.Server.resolve_host h, p))
       | Net.Server.Unix_socket p -> Unix.connect fd (Unix.ADDR_UNIX p));
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* Say nothing; the server must hang up on us. *)
          match Net.Frame.read ~timeout:5. fd with
          | Error Net.Frame.Closed -> ()
          | Ok _ -> Alcotest.fail "idle connection answered?"
          | Error e -> Alcotest.failf "expected server hangup, got %s" (Net.Frame.error_to_string e)))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* After a Build over the wire, a Stats scrape reports the server's
   footprint: its resident set (where procfs exists) and the OCaml
   major heap's size and high-water mark. *)
let test_stats_memory_gauges () =
  let svc = Net.Service.create () in
  let srv = Net.Server.start (Net.Service.handle svc) in
  Fun.protect
    ~finally:(fun () -> Net.Server.stop srv)
    (fun () ->
      let rng = Drbg.create ~seed:"gauge-owner" in
      let keys = Keys.generate ~tdp_bits:512 ~rng () in
      let acc_params = Rsa_acc.setup ~rng ~bits:512 () in
      let owner = Owner.create ~width ~rng ~acc_params ~keys () in
      let shipment = Owner.build owner (Gen.uniform_records ~rng ~width 15) in
      match Net.Client.connect ~name:"gauge-owner" ~provision:false (Net.Server.endpoint srv) with
      | Error e -> Alcotest.failf "connect: %s" (Net.Client.error_to_string e)
      | Ok oc ->
        Fun.protect
          ~finally:(fun () -> Net.Client.close oc)
          (fun () ->
            (match
               Net.Client.build oc ~width ~payment:500 ~acc:acc_params
                 ~tdp_public:keys.Keys.tdp_public ~user_keys:(Keys.for_user keys) ~shipment
                 ~trapdoor:(Owner.export_trapdoor_state owner)
             with
             | Ok _ -> ()
             | Error e -> Alcotest.failf "build: %s" (Net.Client.error_to_string e));
            match Net.Client.stats oc with
            | Error e -> Alcotest.failf "stats: %s" (Net.Client.error_to_string e)
            | Ok (st_json, st_text) ->
              let gauge name =
                String.split_on_char '\n' st_text
                |> List.find_map (fun line ->
                       match String.split_on_char ' ' line with
                       | [ n; x ] when n = name -> int_of_string_opt x
                       | _ -> None)
              in
              let heap = gauge "slicer_ocaml_major_heap_bytes"
              and top = gauge "slicer_ocaml_major_heap_top_bytes"
              and rss = gauge "slicer_process_resident_bytes" in
              (match (heap, top) with
               | Some h, Some t ->
                 Alcotest.(check bool) "major heap is non-empty" true (h > 0);
                 Alcotest.(check bool) "high-water mark covers the heap" true (t >= h)
               | _ -> Alcotest.fail "major heap gauges missing");
              if Sys.file_exists "/proc/self/statm" then begin
                match rss with
                | Some r -> Alcotest.(check bool) "resident set is non-empty" true (r > 0)
                | None -> Alcotest.fail "resident-set gauge missing"
              end
              else Alcotest.(check bool) "no resident-set gauge without procfs" true (rss = None);
              Alcotest.(check bool) "json carries the heap gauge" true
                (contains st_json "slicer_ocaml_major_heap_bytes")))

(* A request too large for one frame is refused by the client itself,
   unsent and without an exception, and the connection serves on. *)
let test_oversize_request_refused () =
  let c = client "oversize" in
  Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
  let dispute =
    Wire.Dispute
      { client = "oversize"; request_id = "oversize#0"; shard = 0;
        claims_blob = String.make (Net.Frame.default_max_payload + 1) 'x';
        batch_witness = None }
  in
  (match Net.Client.rpc c dispute with
   | Error (Net.Client.Refused (Wire.Bad_request, detail)) ->
     Alcotest.(check bool) "the refusal names the limit" true
       (contains detail (Printf.sprintf "the %d-byte frame limit" Net.Frame.default_max_payload))
   | Error e -> Alcotest.failf "oversize dispute: %s" (Net.Client.error_to_string e)
   | Ok _ -> Alcotest.fail "an oversize dispute was answered");
  match Net.Client.ping c with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "ping after the refusal: %s" (Net.Client.error_to_string e)

let test_stats_over_the_wire () =
  (* The admin endpoint end to end: an unprovisioned client scrapes the
     live server and gets back both encodings of the same registry. One
     search first, so the server has settled something to count. *)
  let sc = client "stats-search" in
  (match Net.Client.search sc (q 20 Slicer_types.Lt) with
   | Ok out -> Alcotest.(check bool) "search verified" true out.Protocol.so_verified
   | Error e -> Alcotest.failf "search: %s" (Net.Client.error_to_string e));
  Net.Client.close sc;
  let scrape name =
    match Net.Client.connect ~name ~provision:false (endpoint ()) with
    | Error e -> Alcotest.failf "connect: %s" (Net.Client.error_to_string e)
    | Ok c ->
      let r = Net.Client.stats c in
      Net.Client.close c;
      (match r with
       | Error e -> Alcotest.failf "stats: %s" (Net.Client.error_to_string e)
       | Ok snap -> snap)
  in
  let value text name =
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.split_on_char ' ' line with
           | [ n; x ] when n = name -> float_of_string_opt x
           | _ -> None)
    |> Option.value ~default:0.
  in
  let st_json, st_text = scrape "stats-scrape" in
  Alcotest.(check bool) "prometheus text names the settled counter" true
    (contains st_text "slicer_net_searches_settled_total");
  Alcotest.(check bool) "frame traffic is visible" true
    (contains st_text "slicer_net_bytes_in_total");
  Alcotest.(check bool) "json is a snapshot object" true
    (String.length st_json > 0 && st_json.[0] = '{' && contains st_json "\"histograms\"");
  List.iter
    (fun h ->
      Alcotest.(check bool) (h ^ " is exposed") true (contains st_text (h ^ "_bucket"));
      Alcotest.(check bool) (h ^ " has recorded") true (value st_text (h ^ "_count") > 0.))
    [ "slicer_cloud_search_seconds"; "slicer_net_worker_queue_depth" ];
  Alcotest.(check bool) "the settled counter covers this server's settlements" true
    (value st_text "slicer_net_searches_settled_total"
    >= float_of_int (Net.Service.searches_settled (Lazy.force service)));
  (* Gas by label: one counter per label, summing to the total. *)
  let label_gas =
    String.split_on_char '\n' st_text
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' line with
           | [ n; x ]
             when String.starts_with ~prefix:"slicer_chain_gas_" n
                  && String.ends_with ~suffix:"_total" n
                  && n <> "slicer_chain_gas_total" ->
             Option.map (fun x -> (n, x)) (float_of_string_opt x)
           | _ -> None)
  in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " is exposed") true (List.mem_assoc n label_gas))
    [ "slicer_chain_gas_intrinsic_total"; "slicer_chain_gas_h_prime_total";
      "slicer_chain_gas_sstore_total"; "slicer_chain_gas_sload_total" ];
  Alcotest.(check (float 0.)) "the label counters sum to slicer_chain_gas_total"
    (value st_text "slicer_chain_gas_total")
    (List.fold_left (fun acc (_, x) -> acc +. x) 0. label_gas);
  (* The scrape itself rode the counted transport: a second scrape must
     observe strictly more bytes each way, and the event loop that
     served it must have timed its wait for the runtime lock. *)
  let _, st_text2 = scrape "stats-scrape-2" in
  let grew name =
    Alcotest.(check bool) (name ^ " advanced between scrapes") true
      (value st_text2 name > value st_text name && value st_text name > 0.)
  in
  List.iter grew
    [ "slicer_net_bytes_in_total"; "slicer_net_bytes_out_total";
      "slicer_net_loop_lock_wait_seconds_count"; "slicer_net_loop_lock_wait_seconds_sum" ]

(* --- event loop: incremental decoding, pipelining, backpressure ------------ *)

(* A view's payload, read where it lies in the arena. *)
let view_payload (v : Net.Frame.Decoder.view) =
  Bytes.sub_string v.Net.Frame.Decoder.v_buf v.Net.Frame.Decoder.v_off v.Net.Frame.Decoder.v_len

let test_decoder_byte_at_a_time () =
  (* Feeding a frame stream one byte at a time yields exactly the frames
     the pure decoder sees, and the views alias the live arena. *)
  let frames = [ (1, "first"); (2, ""); (9, String.make 300 '\x7f'); (3, "third") ] in
  let stream = String.concat "" (List.map (fun (tag, p) -> Net.Frame.encode ~tag p) frames) in
  let d = Net.Frame.Decoder.create () in
  let got = ref [] in
  String.iter
    (fun c ->
      Net.Frame.Decoder.feed d (String.make 1 c);
      match Net.Frame.Decoder.next d with
      | Ok None -> ()
      | Ok (Some v) ->
        Alcotest.(check bool) "view aliases the arena" true
          (v.Net.Frame.Decoder.v_buf == Net.Frame.Decoder.buffer d);
        got := (v.Net.Frame.Decoder.v_tag, view_payload v) :: !got
      | Error e -> Alcotest.failf "decoder: %s" (Net.Frame.error_to_string e))
    stream;
  Alcotest.(check (list (pair int string))) "all frames, in order" frames (List.rev !got);
  Alcotest.(check int) "frames counted" (List.length frames) (Net.Frame.Decoder.frames d);
  Alcotest.(check int) "nothing left buffered" 0 (Net.Frame.Decoder.buffered d)

let test_decoder_zero_copy () =
  (* One big chunk in, several frames out: every view aliases the arena
     the chunk was fed into, and parsing them all allocates less than
     the smallest payload, so no payload is copied. *)
  let payloads = List.init 5 (fun i -> String.make (8192 * (i + 1)) (Char.chr (65 + i))) in
  let stream = String.concat "" (List.map (Net.Frame.encode ~tag:7) payloads) in
  let d = Net.Frame.Decoder.create () in
  Net.Frame.Decoder.feed d stream;
  let arena = Net.Frame.Decoder.buffer d in
  let rec drain acc =
    match Net.Frame.Decoder.next d with
    | Ok None -> List.rev acc
    | Ok (Some v) -> drain (v :: acc)
    | Error e -> Alcotest.failf "decoder: %s" (Net.Frame.error_to_string e)
  in
  let before = Gc.allocated_bytes () in
  let views = drain [] in
  let parsing = Gc.allocated_bytes () -. before in
  Alcotest.(check int) "parsed all frames" (List.length payloads) (List.length views);
  List.iter
    (fun v ->
      Alcotest.(check bool) "view aliases the fed arena" true (v.Net.Frame.Decoder.v_buf == arena))
    views;
  if parsing >= 8192. then
    Alcotest.failf "parsing five frames allocated %.0f bytes, a payload's worth" parsing;
  Alcotest.(check (list string)) "each view holds its payload" payloads (List.map view_payload views)

(* A frame fed in 4 KiB reads, as the event loop reads a socket: the
   arena doubles as the bytes arrive, never holds more than twice what
   was fed, and stops at the frame's own length, where doubling alone
   would reach 1 MiB for a Build of this size. *)
let test_decoder_arena_capped_at_frame () =
  let frame_len = 536_976 in
  let payload = String.init (frame_len - Net.Frame.header_bytes) (fun i -> Char.chr (i land 0xff)) in
  let frame = Net.Frame.encode ~tag:1 payload in
  let d = Net.Frame.Decoder.create () in
  let rec feed fed =
    let buf, off = Net.Frame.Decoder.space d 4096 in
    let n = min 4096 (min (Net.Frame.Decoder.room d) (frame_len - fed)) in
    Bytes.blit_string frame fed buf off n;
    Net.Frame.Decoder.commit d n;
    let fed = fed + n in
    let arena = Bytes.length (Net.Frame.Decoder.buffer d) in
    if arena > 2 * fed then Alcotest.failf "an arena of %d bytes after %d fed" arena fed;
    match Net.Frame.Decoder.next d with
    | Ok None when fed < frame_len -> feed fed
    | Ok None -> Alcotest.fail "the whole frame is buffered but does not parse"
    | Ok (Some v) -> (fed, v)
    | Error e -> Alcotest.failf "decoder: %s" (Net.Frame.error_to_string e)
  in
  let fed, v = feed 0 in
  Alcotest.(check int) "parsed once the last byte arrived" frame_len fed;
  Alcotest.(check int) "the arena ends at the frame's length" frame_len
    (Bytes.length v.Net.Frame.Decoder.v_buf);
  Alcotest.(check bool) "the view holds the payload" true (String.equal payload (view_payload v))

let test_decoder_rejects_corruption () =
  (* The streaming checksum catches a flipped payload bit exactly like
     the pure decoder does. *)
  let frame = Bytes.of_string (Net.Frame.encode ~tag:1 "an honest payload") in
  Bytes.set frame 20 (Char.chr (Char.code (Bytes.get frame 20) lxor 4));
  let d = Net.Frame.Decoder.create () in
  Net.Frame.Decoder.feed d (Bytes.to_string frame);
  (match Net.Frame.Decoder.next d with
   | Error Net.Frame.Bad_checksum -> ()
   | Ok _ -> Alcotest.fail "corrupt frame parsed"
   | Error e -> Alcotest.failf "expected Bad_checksum, got %s" (Net.Frame.error_to_string e))

let connect_raw srv =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (match Net.Server.endpoint srv with
   | Net.Server.Tcp (h, p) -> Unix.connect fd (Unix.ADDR_INET (Net.Server.resolve_host h, p))
   | Net.Server.Unix_socket p -> Unix.connect fd (Unix.ADDR_UNIX p));
  fd

let write_raw fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      match Unix.write fd b off (Bytes.length b - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let test_pipelined_requests_in_order () =
  (* Many requests in one burst, answered strictly in order — with a
     malformed payload mid-stream answered (with a refusal) in its
     slot. *)
  ignore (Lazy.force server);
  let fd = connect_raw (Lazy.force server) in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let n = 12 in
      let burst =
        String.concat ""
          (List.init n (fun i ->
               if i = 5 then Net.Frame.encode ~tag:Wire.request_tag "not a request"
               else Net.Frame.encode ~tag:Wire.request_tag (Wire.encode_request Wire.Ping)))
      in
      write_raw fd burst;
      List.iter
        (fun i ->
          match Net.Frame.read ~timeout:10. fd with
          | Error e -> Alcotest.failf "reply %d: %s" i (Net.Frame.error_to_string e)
          | Ok { Net.Frame.payload; _ } ->
            (match Wire.decode_response payload, i with
             | Some (Wire.Refused { code = Wire.Bad_request; _ }), 5 -> ()
             | Some Wire.Pong, i when i <> 5 -> ()
             | Some _, _ -> Alcotest.failf "reply %d out of order or wrong" i
             | None, _ -> Alcotest.failf "reply %d undecodable" i))
        (List.init n (fun i -> i)))

let test_slowloris_swept_without_stalling () =
  (* A byte-trickler never completes a frame: the sweep kicks it even
     though bytes keep arriving, and a concurrent well-behaved client
     never notices. *)
  let config = { Net.Server.default_config with read_timeout = 0.5 } in
  let srv = Net.Server.start ~config (Net.Service.handle (Lazy.force service)) in
  Fun.protect
    ~finally:(fun () -> Net.Server.stop srv)
    (fun () ->
      let sly = connect_raw srv in
      Fun.protect
        ~finally:(fun () -> try Unix.close sly with Unix.Unix_error _ -> ())
        (fun () ->
          let frame = Net.Frame.encode ~tag:Wire.request_tag (Wire.encode_request Wire.Ping) in
          let kicked = ref false in
          (try
             (* One byte every 150 ms: a complete frame would take ~5 s,
                ten times the sweep deadline. *)
             for i = 0 to String.length frame - 1 do
               write_raw sly (String.make 1 frame.[i]);
               Unix.sleepf 0.15;
               if i = 3 then begin
                 (* Mid-trickle, a normal client gets served instantly. *)
                 match Net.Client.connect ~name:"not-slow" ~provision:false
                         (Net.Server.endpoint srv)
                 with
                 | Error e -> Alcotest.failf "victim connect: %s" (Net.Client.error_to_string e)
                 | Ok c ->
                   (match Net.Client.ping c with
                    | Ok _ -> ()
                    | Error e ->
                      Alcotest.failf "slowloris stalled a good client: %s"
                        (Net.Client.error_to_string e));
                   Net.Client.close c
               end
             done
           with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> kicked := true);
          (* Either the trickle write already failed, or the next read
             sees the server's hangup. *)
          if not !kicked then
            match Net.Frame.read ~timeout:5. sly with
            | Error (Net.Frame.Closed | Net.Frame.Truncated) -> ()
            | Ok _ -> Alcotest.fail "slowloris connection was answered"
            | Error e -> Alcotest.failf "expected hangup, got %s" (Net.Frame.error_to_string e)))

let test_backpressure_throttles_non_reader () =
  (* A client that fires pipelined Stats requests (big replies) without
     reading gets its socket throttled — bounded server memory — and
     every reply, in order, once it finally drains. *)
  (* Tiny, pinned kernel buffers on both ends (explicit setsockopt
     disables autotuning; accepted sockets inherit the listener's), so
     the kernel can absorb almost nothing and the reply bytes must wait
     in the server's userspace — where one connection holds at most its
     one pending reply. *)
  let listener = Net.Server.bind_endpoint (Net.Server.Tcp ("127.0.0.1", 0)) in
  Unix.setsockopt_int listener Unix.SO_SNDBUF 4096;
  let port = Net.Server.bound_port listener in
  let srv = Net.Server.start ~listener (Net.Service.handle (Lazy.force service)) in
  Fun.protect
    ~finally:(fun () -> Net.Server.stop srv)
    (fun () ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt_int fd Unix.SO_RCVBUF 4096;
      Unix.connect fd (Unix.ADDR_INET (Net.Server.resolve_host "127.0.0.1", port));
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let throttles_before = Obs.counter_value "slicer_net_backpressure_throttles_total" in
          let queued = Obs.gauge "slicer_net_queued_write_bytes" in
          let queued_before = Obs.Gauge.value queued in
          let n = 40 in
          let burst =
            String.concat ""
              (List.init n (fun _ ->
                   Net.Frame.encode ~tag:Wire.request_tag (Wire.encode_request Wire.Stats)))
          in
          write_raw fd burst;
          (* Give the server time to answer far more than one reply
             while we refuse to read, watching what it holds. *)
          let peak_queued = ref 0 in
          let until = Unix.gettimeofday () +. 0.8 in
          while Unix.gettimeofday () < until do
            peak_queued := max !peak_queued (Obs.Gauge.value queued - queued_before);
            Unix.sleepf 0.005
          done;
          let throttles_after = Obs.counter_value "slicer_net_backpressure_throttles_total" in
          Alcotest.(check bool) "write backpressure engaged" true
            (throttles_after > throttles_before);
          (* Now drain: every reply arrives, in order, on the same
             connection. *)
          let largest = ref 0 in
          List.iter
            (fun i ->
              match Net.Frame.read ~timeout:20. fd with
              | Error e -> Alcotest.failf "reply %d: %s" i (Net.Frame.error_to_string e)
              | Ok { Net.Frame.payload; _ } ->
                largest := max !largest (Net.Frame.header_bytes + String.length payload);
                (match Wire.decode_response payload with
                 | Some (Wire.Stats_reply _) -> ()
                 | _ -> Alcotest.failf "reply %d is not a stats reply" i))
            (List.init n (fun i -> i));
          if !peak_queued > !largest then
            Alcotest.failf "the server held %d unsent bytes, more than one %d-byte reply"
              !peak_queued !largest;
          (* The throttled connection recovered fully. *)
          Net.Frame.write fd ~tag:Wire.request_tag (Wire.encode_request Wire.Ping);
          match Net.Frame.read ~timeout:5. fd with
          | Ok { Net.Frame.payload; _ } ->
            (match Wire.decode_response payload with
             | Some Wire.Pong -> ()
             | _ -> Alcotest.fail "expected Pong after draining")
          | Error e -> Alcotest.failf "no pong after draining: %s" (Net.Frame.error_to_string e)))

(* A handler that sleeps 20 ms per request and keeps the peak number of
   its calls that ran at once. *)
let overlap_probe () =
  let live = Atomic.make 0 and peak = Atomic.make 0 in
  let handler _ =
    let n = 1 + Atomic.fetch_and_add live 1 in
    let rec raise_peak () =
      let p = Atomic.get peak in
      if n > p && not (Atomic.compare_and_set peak p n) then raise_peak ()
    in
    raise_peak ();
    Unix.sleepf 0.02;
    Atomic.decr live;
    Wire.Pong
  in
  (handler, peak)

let ping_frame = Net.Frame.encode ~tag:Wire.request_tag (Wire.encode_request Wire.Ping)

let expect_pongs fd k =
  for i = 1 to k do
    match Net.Frame.read ~timeout:10. fd with
    | Error e -> Alcotest.failf "reply %d: %s" i (Net.Frame.error_to_string e)
    | Ok { Net.Frame.payload; _ } ->
      (match Wire.decode_response payload with
       | Some Wire.Pong -> ()
       | _ -> Alcotest.failf "reply %d is not a Pong" i)
  done

let test_one_request_per_connection () =
  (* Pipelined requests on one connection run one at a time; requests
     on separate connections still run side by side. *)
  let handler, peak = overlap_probe () in
  let srv = Net.Server.start handler in
  Fun.protect
    ~finally:(fun () -> Net.Server.stop srv)
    (fun () ->
      let fd = connect_raw srv in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          write_raw fd (String.concat "" (List.init 8 (fun _ -> ping_frame)));
          expect_pongs fd 8);
      Alcotest.(check int) "8 pipelined Pings: peak concurrent handlers" 1 (Atomic.get peak);
      Atomic.set peak 0;
      let a = connect_raw srv and b = connect_raw srv in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ a; b ])
        (fun () ->
          write_raw a ping_frame;
          write_raw b ping_frame;
          expect_pongs a 1;
          expect_pongs b 1);
      Alcotest.(check int) "two connections: peak concurrent handlers" 2 (Atomic.get peak))

(* Two request frames in one write, each longer than half the 4 KiB
   arena: the worker decodes the first from the arena while the second
   waits beside it, unparsed and unread past, and the replies, which
   echo their requests' bytes, come back right and in order. A loop
   that read on while the first was in the pool would slide the second
   frame's bytes over the first's. *)
let test_two_frames_one_write () =
  let handler = function
    | Wire.Receipt { client; request_id } ->
      Thread.delay 0.02;
      Wire.Refused { code = Wire.Bad_request; detail = request_id ^ ":" ^ client }
    | _ -> Wire.Refused { code = Wire.Internal; detail = "unexpected request" }
  in
  let request i =
    Wire.Receipt { client = String.make 3000 (Char.chr (97 + i)); request_id = string_of_int i }
  in
  let srv = Net.Server.start handler in
  Fun.protect ~finally:(fun () -> Net.Server.stop srv) @@ fun () ->
  let fd = connect_raw srv in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) @@ fun () ->
  write_raw fd
    (String.concat ""
       (List.init 2 (fun i ->
            Net.Frame.encode ~tag:Wire.request_tag (Wire.encode_request (request i)))));
  for i = 0 to 1 do
    match Net.Frame.read ~timeout:10. fd with
    | Error e -> Alcotest.failf "reply %d: %s" i (Net.Frame.error_to_string e)
    | Ok { Net.Frame.payload; _ } ->
      (match (Wire.decode_response payload, request i) with
       | Some (Wire.Refused { detail; _ }), Wire.Receipt { client; request_id } ->
         Alcotest.(check string) (Printf.sprintf "reply %d echoes request %d" i i)
           (request_id ^ ":" ^ client) detail
       | _ -> Alcotest.failf "reply %d did not decode as the echo" i)
  done

let test_half_closed_burst_answered () =
  (* After the peer's FIN, every complete frame it sent is still
     answered, in order, before the socket closes. *)
  let fd = connect_raw (Lazy.force server) in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let n = 12 in
      let request i = if i mod 2 = 0 then Wire.Ping else Wire.Stats in
      write_raw fd
        (String.concat ""
           (List.init n (fun i ->
                Net.Frame.encode ~tag:Wire.request_tag (Wire.encode_request (request i)))));
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      for i = 0 to n - 1 do
        match Net.Frame.read ~timeout:10. fd with
        | Error e -> Alcotest.failf "reply %d: %s" i (Net.Frame.error_to_string e)
        | Ok { Net.Frame.payload; _ } ->
          (match Wire.decode_response payload, request i with
           | Some Wire.Pong, Wire.Ping | Some (Wire.Stats_reply _), Wire.Stats -> ()
           | _ -> Alcotest.failf "reply %d out of order or wrong" i)
      done;
      match Net.Frame.read ~timeout:10. fd with
      | Error Net.Frame.Closed -> ()
      | Ok _ -> Alcotest.fail "a reply past the last request"
      | Error e -> Alcotest.failf "expected EOF, got %s" (Net.Frame.error_to_string e))

let test_pre_handshake_garbage_dropped () =
  (* A peer whose very first bytes are not a valid frame gets dropped
     silently: no refusal, no oracle, just EOF. *)
  ignore (Lazy.force server);
  let fd = connect_raw (Lazy.force server) in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write_raw fd "GET / HTTP/1.1\r\nHost: victim\r\n\r\n";
      let b = Bytes.create 256 in
      match Unix.read fd b 0 256 with
      | 0 -> ()
      | n -> Alcotest.failf "port-scanner got %d reply bytes" n
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ())

let test_swarm_holds_connections () =
  (* A few hundred plain clients from one process, each confirmed by
     one Ping: the server's open-connection count sees them, and
     closing them releases them. *)
  let srv = Net.Server.start (Net.Service.handle (Lazy.force service)) in
  Fun.protect
    ~finally:(fun () -> Net.Server.stop srv)
    (fun () ->
      let n = 300 in
      let clients =
        List.init n (fun i ->
            match
              Net.Client.connect ~name:(Printf.sprintf "idle-%d" i) ~provision:false
                (Net.Server.endpoint srv)
            with
            | Ok c -> c
            | Error e -> Alcotest.failf "connect: %s" (Net.Client.error_to_string e))
      in
      Fun.protect
        ~finally:(fun () -> List.iter Net.Client.close clients)
        (fun () ->
          let confirmed =
            List.length (List.filter (fun c -> Result.is_ok (Net.Client.ping c)) clients)
          in
          Alcotest.(check int) "every connection confirmed" n confirmed;
          Alcotest.(check bool) "server sees every connection" true
            (Net.Server.open_connections srv >= n));
      (* After close, the loop reaps every socket promptly. *)
      let deadline = Unix.gettimeofday () +. 5. in
      let rec wait () =
        if Net.Server.open_connections srv = 0 then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.failf "server still holds %d sockets after the clients closed"
            (Net.Server.open_connections srv)
        else begin
          Unix.sleepf 0.05;
          wait ()
        end
      in
      wait ())

(* Every wait in lib/net goes through poll(2), which, unlike select,
   takes descriptors numbered at or past FD_SETSIZE (1024). With ~1,100
   descriptors held, a server started now listens and accepts past it,
   and a client's socket lands past it too: a Ping and a verified search
   must still go through. *)
let test_client_past_fd_setsize () =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let held = ref [ null ] in
  Fun.protect
    ~finally:(fun () -> List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !held)
    (fun () ->
      (try
         for _ = 1 to 1100 do
           held := Unix.dup null :: !held
         done
       with Unix.Unix_error (Unix.EMFILE, _, _) ->
         Printf.printf "skipped: dup hit EMFILE after %d descriptors\n%!" (List.length !held);
         Alcotest.skip ());
      (* The lowest free descriptor, which the next socket takes. *)
      let next_fd =
        let fd = Unix.dup null in
        Unix.close fd;
        (Obj.magic fd : int)
      in
      if next_fd < 1024 then Alcotest.failf "the next descriptor is %d, under 1024" next_fd;
      let srv = Net.Server.start (Net.Service.handle (Lazy.force service)) in
      Fun.protect ~finally:(fun () -> Net.Server.stop srv) @@ fun () ->
      let c =
        match Net.Client.connect ~name:"past-fd-setsize" (Net.Server.endpoint srv) with
        | Ok c -> c
        | Error e -> Alcotest.failf "connect: %s" (Net.Client.error_to_string e)
      in
      Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
      (match Net.Client.ping c with
       | Ok _ -> ()
       | Error e -> Alcotest.failf "ping: %s" (Net.Client.error_to_string e));
      match Net.Client.search c (q 30 Slicer_types.Lt) with
      | Ok out -> Alcotest.(check bool) "verified" true out.Protocol.so_verified
      | Error e -> Alcotest.failf "search: %s" (Net.Client.error_to_string e))

(* --- durability: WAL + snapshots across restarts --------------------------- *)

(* A dedicated little owner whose shipments populate durable services. *)
let durable_owner seed =
  let rng = Drbg.create ~seed in
  let keys = Keys.generate ~tdp_bits:512 ~rng () in
  let acc_params = Rsa_acc.setup ~rng ~bits:512 () in
  let owner = Owner.create ~width ~rng ~acc_params ~keys () in
  let records = Gen.uniform_records ~rng ~width 15 in
  let shipment = Owner.build owner records in
  (rng, keys, acc_params, owner, records, shipment)

(* --- the owner's witnesses ------------------------------------------------- *)

let build_req ?(client = "wit-owner") ?(request_id = "wit#b") ~keys ~acc_params owner shipment =
  Wire.Build
    { client; request_id; width; payment = 500; acc = acc_params;
      tdp_n = keys.Keys.tdp_public.Rsa_tdp.pn; tdp_e = keys.Keys.tdp_public.Rsa_tdp.e;
      user_k = (Keys.for_user keys).Keys.u_k; user_k_r = (Keys.for_user keys).Keys.u_k_r;
      shipment; trapdoor = Owner.export_trapdoor_state owner; trace = None }

let hello_user svc client =
  match Net.Service.handle svc (Wire.Hello { client; proto = Wire.proto_version }) with
  | Wire.Welcome p ->
    User.create ~keys:p.Wire.pv_user_keys ~width:p.Wire.pv_width p.Wire.pv_trapdoor
  | _ -> Alcotest.failf "hello from %s refused" client

let station_of svc =
  match Net.Service.station svc with Some st -> st | None -> Alcotest.fail "no database"

(* The prime a claim's witness was made for. *)
let claim_prime (c : Slicer_contract.claim) =
  Prime_rep.to_prime (Slicer_contract.claim_input ~token_bytes:c.token_bytes c.results)

(* Every distinct value's equality query and a spread of order queries:
   between them they touch most keywords. *)
let spread_queries records =
  List.sort_uniq compare (List.concat_map (fun r -> List.map snd r.Slicer_types.fields) records)
  |> List.concat_map (fun v -> [ q v Slicer_types.Eq; q v Slicer_types.Lt; q v Slicer_types.Gt ])

(* A single server installs the owner's witnesses: its Build warm still
   runs and advances the warm counter, but computes no base, and every
   witness served equals [Rsa_acc.all_witnesses] over the Build's
   primes. *)
let test_build_witnesses_serve_at_once () =
  let rng, keys, acc_params, owner, records, shipment = durable_owner "wit-serve" in
  let primes = Owner.shipment_primes shipment in
  let expected = Rsa_acc.all_witnesses acc_params primes in
  Alcotest.(check bool) "the shipment's witnesses are all_witnesses" true
    (List.equal Bigint.equal shipment.Owner.sh_witnesses (List.map snd expected));
  let svc = Net.Service.create () in
  let warms0 = warms () in
  (match Net.Service.handle svc (build_req ~keys ~acc_params owner shipment) with
   | Wire.Accepted _ -> ()
   | _ -> Alcotest.fail "build refused");
  (* The Build still schedules its warm pass, which advances the
     counter that perfbench's owner and [seeded_service] wait on. *)
  await_warms (warms0 + 1);
  let cloud = Station.cloud (station_of svc) in
  let ws = Cloud.witness_index_stats cloud in
  Alcotest.(check int) "every leaf fresh" (List.length primes) ws.Witness_tree.ws_fresh;
  Alcotest.(check int) "the warm computed no base" 0 ws.Witness_tree.ws_cold;
  let user = hello_user svc "wit-serve-user" in
  let served = ref 0 in
  List.iteri
    (fun i query ->
      let tokens = User.gen_tokens ~rng user query in
      if tokens <> [] then
      match
        Net.Service.handle svc
          (Wire.Search
             { client = "wit-serve-user"; request_id = Printf.sprintf "ws#%d" i; batched = false;
               tokens; trace = None })
      with
      | Wire.Found r ->
        List.iter
          (fun (c : Slicer_contract.claim) ->
            incr served;
            match List.find_opt (fun (x, _) -> Bigint.equal x (claim_prime c)) expected with
            | Some (_, w) ->
              Alcotest.(check bool) "served = all_witnesses" true (Bigint.equal w c.witness)
            | None -> Alcotest.fail "a claim's prime is not in the Build")
          r.Wire.sr_claims
      | Wire.Refused { detail; _ } -> Alcotest.failf "search refused: %s" detail
      | _ -> Alcotest.fail "unexpected reply")
    (spread_queries records);
  Alcotest.(check bool) "witnesses were served" true (!served > 20);
  Alcotest.(check int) "served without computing a base" 0
    (Cloud.witness_index_stats cloud).Witness_tree.ws_cold

(* The server checks no shipped witness, as it checks no [sh_ac]: a
   Build whose one witness is corrupted is installed, and the contract
   refuses every claim made with it. The searches that touch that
   keyword are refunded, the others are paid, and the escrow ends where
   it began. *)
let test_corrupted_witness_refused_on_chain () =
  let rng, keys, acc_params, owner, records, shipment = durable_owner "wit-corrupt" in
  let bad = 0 in
  let bad_g1 = (List.nth shipment.Owner.sh_groups bad).Owner.kg_g1 in
  let corrupted =
    { shipment with
      Owner.sh_witnesses =
        List.mapi (fun i w -> if i = bad then Bigint.succ w else w) shipment.Owner.sh_witnesses }
  in
  let svc = Net.Service.create () in
  (match Net.Service.handle svc (build_req ~keys ~acc_params owner corrupted) with
   | Wire.Accepted _ -> ()
   | _ -> Alcotest.fail "the corrupted Build was refused");
  let user = hello_user svc "wit-corrupt-user" in
  let st = station_of svc in
  let vmst = Ledger.state (Station.ledger st) in
  let user_addr = Vm.address_of_name "slicer-net:user:wit-corrupt-user" in
  let balances () =
    ( Vm.balance vmst user_addr,
      Vm.balance vmst (Station.cloud_addr st),
      Vm.balance vmst (Station.contract st) )
  in
  let u0, c0, k0 = balances () in
  let paid = ref 0 and refunded = ref 0 in
  List.iteri
    (fun i query ->
      let tokens = User.gen_tokens ~rng user query in
      let touches = List.exists (fun t -> String.equal t.Slicer_types.st_g1 bad_g1) tokens in
      if tokens <> [] then
        match
          Net.Service.handle svc
            (Wire.Search
               { client = "wit-corrupt-user"; request_id = Printf.sprintf "wc#%d" i;
                 batched = false; tokens; trace = None })
        with
        | Wire.Found r ->
          (match (touches, r.Wire.sr_receipt.Vm.r_output) with
           | true, Ok [ "refunded" ] -> incr refunded
           | false, Ok [ "paid" ] -> incr paid
           | _ -> Alcotest.failf "query %d (touches the bad keyword: %b) settled wrong" i touches)
        | _ -> Alcotest.failf "query %d refused" i)
    (spread_queries records);
  Alcotest.(check bool) "some searches touched the corrupted keyword" true (!refunded > 0);
  Alcotest.(check bool) "some did not" true (!paid > 0);
  let u1, c1, k1 = balances () in
  Alcotest.(check int) "the user paid the paid searches only" (u0 - (500 * !paid)) u1;
  Alcotest.(check int) "the cloud earned them" (c0 + (500 * !paid)) c1;
  Alcotest.(check int) "no escrow left in the contract" k0 k1

(* A shipment carries no witness or one per group; any other count is
   refused [Bad_request] before anything is installed, on a Build and
   on an Insert. *)
let test_misfit_witnesses_refused () =
  let _rng, keys, acc_params, owner, _records, shipment = durable_owner "wit-misfit" in
  let svc = Net.Service.create () in
  let refused what req =
    match Net.Service.handle svc req with
    | Wire.Refused { code = Wire.Bad_request; _ } -> ()
    | Wire.Refused { detail; _ } ->
      Alcotest.failf "%s refused, but not as bad_request: %s" what detail
    | _ -> Alcotest.failf "%s accepted" what
  in
  List.iter
    (fun (what, sh_witnesses) ->
      refused what (build_req ~keys ~acc_params owner { shipment with Owner.sh_witnesses });
      Alcotest.(check bool) (what ^ ": nothing built") false (Net.Service.built svc))
    [ ("a Build one witness short", List.tl shipment.Owner.sh_witnesses);
      ("a Build with one witness too many", Bigint.two :: shipment.Owner.sh_witnesses) ];
  (match Net.Service.handle svc (build_req ~keys ~acc_params owner shipment) with
   | Wire.Accepted _ -> ()
   | _ -> Alcotest.fail "the well-formed Build was refused");
  let insert =
    Owner.insert owner
      [ Slicer_types.record_of_value "misfit-a" 1; Slicer_types.record_of_value "misfit-b" 50 ]
  in
  Alcotest.(check bool) "the Insert has two groups or more" true
    (List.length insert.Owner.sh_groups >= 2);
  let primes = Cloud.prime_count (Station.cloud (station_of svc)) in
  refused "an Insert with one witness"
    (Wire.Insert
       { client = "wit-owner"; request_id = "wit#i";
         shipment = { insert with Owner.sh_witnesses = [ Bigint.two ] };
         trapdoor = Owner.export_trapdoor_state owner; trace = None });
  Alcotest.(check int) "the refused Insert left the generation" 1 (Net.Service.generation svc);
  Alcotest.(check int) "and the primes" primes (Cloud.prime_count (Station.cloud (station_of svc)))

(* An Insert that the index refuses part-way (one group holds the same
   32-byte entry twice, so its second copy finds its position taken)
   is refused with the witness tree untouched: the tree takes a
   shipment's primes only once the index has installed its entries, so
   the leaves stay the primes behind [Ac] and a later search is paid. *)
(* A built service, and an Insert whose first group holds its first
   entry twice; the Insert itself is returned too. *)
let clashing_insert seed =
  let rng, keys, acc_params, owner, _records, shipment = durable_owner seed in
  let svc = Net.Service.create () in
  (match Net.Service.handle svc (build_req ~keys ~acc_params owner shipment) with
   | Wire.Accepted _ -> ()
   | _ -> Alcotest.fail "build refused");
  let insert = Owner.insert owner [ Slicer_types.record_of_value "clash" 9 ] in
  let clashing =
    match insert.Owner.sh_groups with
    | g :: rest ->
      let twice = g.Owner.kg_entries ^ String.sub g.Owner.kg_entries 0 Enc_index.record_len in
      { insert with Owner.sh_groups = { g with Owner.kg_entries = twice } :: rest }
    | [] -> Alcotest.fail "the Insert has no group"
  in
  let send request_id shipment =
    Net.Service.handle svc
      (Wire.Insert
         { client = "wit-owner"; request_id; shipment;
           trapdoor = Owner.export_trapdoor_state owner; trace = None })
  in
  (rng, svc, shipment, insert, clashing, send)

let test_clashing_insert_leaves_the_tree () =
  let rng, svc, _shipment, _insert, clashing, send = clashing_insert "wit-clash" in
  let cloud = Station.cloud (station_of svc) in
  let leaves () = (Cloud.witness_index_stats cloud).Witness_tree.ws_leaves in
  let leaves0 = leaves () in
  (match send "wit#clash" clashing with
   | Wire.Refused _ -> ()
   | _ -> Alcotest.fail "the clashing Insert was accepted");
  Alcotest.(check int) "the generation is unchanged" 1 (Net.Service.generation svc);
  Alcotest.(check int) "the tree took no leaf" leaves0 (leaves ());
  let user = hello_user svc "wit-clash-user" in
  match
    Net.Service.handle svc
      (Wire.Search
         { client = "wit-clash-user"; request_id = "wcl#1"; batched = false;
           tokens = User.gen_tokens ~rng user (q 30 Slicer_types.Lt); trace = None })
  with
  | Wire.Found r ->
    Alcotest.(check (result (list string) string)) "a later search is paid" (Ok [ "paid" ])
      r.Wire.sr_receipt.Vm.r_output
  | _ -> Alcotest.fail "search refused"

(* The index refuses a clashing Insert before it writes an entry or
   moves a mark, so the owner's well-formed retry of the same Insert is
   accepted: the index then holds the Build's entries and the retry's,
   the tree the Build's primes and the retry's, and a search at the
   new generation is paid. *)
let test_clashing_insert_retry_accepted () =
  let rng, svc, shipment, insert, clashing, send = clashing_insert "wit-retry" in
  let cloud = Station.cloud (station_of svc) in
  let entries0 = Cloud.index_entries cloud in
  Alcotest.(check int) "the Build's entries" (Owner.shipment_entry_count shipment) entries0;
  (match send "wit#clash" clashing with
   | Wire.Refused _ -> ()
   | _ -> Alcotest.fail "the clashing Insert was accepted");
  Alcotest.(check int) "the refused Insert wrote no entry" entries0 (Cloud.index_entries cloud);
  (match send "wit#retry" insert with
   | Wire.Accepted { generation } -> Alcotest.(check int) "the retry's generation" 2 generation
   | Wire.Refused { detail; _ } -> Alcotest.failf "the well-formed retry was refused: %s" detail
   | _ -> Alcotest.fail "unexpected reply to the retry");
  Alcotest.(check int) "the Build's entries and the retry's"
    (entries0 + Owner.shipment_entry_count insert) (Cloud.index_entries cloud);
  Alcotest.(check int) "the Build's primes and the retry's"
    (List.length (Owner.shipment_primes shipment) + List.length (Owner.shipment_primes insert))
    (Cloud.prime_count cloud);
  let user = hello_user svc "wit-retry-user" in
  match
    Net.Service.handle svc
      (Wire.Search
         { client = "wit-retry-user"; request_id = "wr#1"; batched = false;
           tokens = User.gen_tokens ~rng user (q 9 Slicer_types.Eq); trace = None })
  with
  | Wire.Found r ->
    Alcotest.(check (result (list string) string)) "a search at generation 2 is paid"
      (Ok [ "paid" ]) r.Wire.sr_receipt.Vm.r_output
  | _ -> Alcotest.fail "search refused"

(* The accumulator's factors stay with the owner. A durable server is
   driven over the wire through a Build, searches, an Insert, a search
   at the new generation and a checkpoint; the big-endian bytes of p, q
   and (p - 1)(q - 1) must occur in no request the owner sends, no
   reply, the WAL or the snapshot. *)
let test_factors_never_leave_the_owner () =
  let rng, keys, acc_params, owner, _records, shipment = durable_owner "wit-factors" in
  let p, q' =
    match Rsa_acc.factors acc_params with
    | Some f -> f
    | None -> Alcotest.fail "setup kept no factors"
  in
  let secrets =
    [ ("p", Bigint.to_bytes_be p); ("q", Bigint.to_bytes_be q');
      ("(p-1)(q-1)", Bigint.to_bytes_be (Bigint.mul (Bigint.pred p) (Bigint.pred q'))) ]
  in
  let check_clean where bytes =
    List.iter
      (fun (name, secret) ->
        if contains bytes secret then Alcotest.failf "%s carries the factor %s" where name)
      secrets
  in
  let dir = fresh_state_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cfg = { Store.dir; fsync = false; snapshot_bytes = max_int } in
  let svc =
    match Net.Service.recover cfg with
    | Ok (svc, _) -> svc
    | Error e -> Alcotest.failf "recover: %s" e
  in
  let srv = Net.Server.start (Net.Service.handle svc) in
  let fd =
    match Net.Server.endpoint srv with
    | Net.Server.Tcp (h, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Net.Server.resolve_host h, port));
      fd
    | Net.Server.Unix_socket path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      fd
  in
  let exchange what req =
    let bytes = Wire.encode_request req in
    check_clean (what ^ " request") bytes;
    Net.Frame.write fd ~tag:Wire.request_tag bytes;
    match Net.Frame.read ~timeout:20. fd with
    | Ok { Net.Frame.payload; _ } ->
      check_clean (what ^ " reply") payload;
      (match Wire.decode_response payload with
       | Some resp -> resp
       | None -> Alcotest.failf "%s: undecodable reply" what)
    | Error e -> Alcotest.failf "%s: no reply: %s" what (Net.Frame.error_to_string e)
  in
  let user () =
    match
      exchange "hello" (Wire.Hello { client = "wit-factors-user"; proto = Wire.proto_version })
    with
    | Wire.Welcome p ->
      User.create ~keys:p.Wire.pv_user_keys ~width:p.Wire.pv_width p.Wire.pv_trapdoor
    | _ -> Alcotest.fail "hello refused"
  in
  let search u i query =
    match
      exchange "search"
        (Wire.Search
           { client = "wit-factors-user"; request_id = Printf.sprintf "wf#%d" i; batched = false;
             tokens = User.gen_tokens ~rng u query; trace = None })
    with
    | Wire.Found r ->
      Alcotest.(check (result (list string) string)) "paid" (Ok [ "paid" ])
        r.Wire.sr_receipt.Vm.r_output
    | _ -> Alcotest.fail "search refused"
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Net.Server.stop srv;
      Option.iter Store.close (Net.Service.store svc))
    (fun () ->
      (match exchange "build" (build_req ~keys ~acc_params owner shipment) with
       | Wire.Accepted _ -> ()
       | _ -> Alcotest.fail "build refused");
      let u = user () in
      search u 1 (q 30 Slicer_types.Lt);
      search u 2 (q 12 Slicer_types.Gt);
      let insert = Owner.insert owner [ Slicer_types.record_of_value "wf-new" 7 ] in
      (match
         exchange "insert"
           (Wire.Insert
              { client = "wit-owner"; request_id = "wit#i"; shipment = insert;
                trapdoor = Owner.export_trapdoor_state owner; trace = None })
       with
       | Wire.Accepted _ -> ()
       | _ -> Alcotest.fail "insert refused");
      search (user ()) 3 (q 7 Slicer_types.Eq));
  (* Recovery checkpoints the state it rebuilt from the WAL. *)
  (match Net.Service.recover cfg with
   | Ok (svc, stats) ->
     Alcotest.(check bool) "the WAL was replayed" true (stats.Net.Service.rs_replayed > 0);
     Option.iter Store.close (Net.Service.store svc)
   | Error e -> Alcotest.failf "recover: %s" e);
  let files = Sys.readdir dir |> Array.to_list |> List.sort compare in
  Alcotest.(check bool) "a WAL and a snapshot" true
    (List.mem "wal.log" files && List.exists (fun f -> String.starts_with ~prefix:"snap-" f) files);
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      if not (Sys.is_directory path) then
        check_clean f (In_channel.with_open_bin path In_channel.input_all))
    files

(* A WAL that holds only a Build: replaying it grafts the Build's
   witnesses, so a search for a keyword no replayed search touched
   computes no base. *)
let test_wal_only_build_recovers_warm () =
  let rng, keys, acc_params, owner, _records, shipment = durable_owner "wit-wal" in
  let dir = fresh_state_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cfg = { Store.dir; fsync = false; snapshot_bytes = max_int } in
  (match Net.Service.recover cfg with
   | Error e -> Alcotest.failf "initial recover: %s" e
   | Ok (svc, _) ->
     (match Net.Service.handle svc (build_req ~keys ~acc_params owner shipment) with
      | Wire.Accepted _ -> ()
      | _ -> Alcotest.fail "build refused");
     Option.iter Store.close (Net.Service.store svc));
  match Net.Service.recover cfg with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok (svc, stats) ->
    Fun.protect ~finally:(fun () -> Option.iter Store.close (Net.Service.store svc)) @@ fun () ->
    Alcotest.(check bool) "from the WAL alone" false stats.Net.Service.rs_snapshot;
    Alcotest.(check int) "one record, the Build" 1 stats.Net.Service.rs_replayed;
    let cloud = Station.cloud (station_of svc) in
    let before = Cloud.witness_index_stats cloud in
    Alcotest.(check int) "the Build's leaves came back fresh" before.Witness_tree.ws_leaves
      before.Witness_tree.ws_fresh;
    let user = hello_user svc "wit-wal-user" in
    (match
       Net.Service.handle svc
         (Wire.Search
            { client = "wit-wal-user"; request_id = "ww#1"; batched = false;
              tokens = User.gen_tokens ~rng user (q 30 Slicer_types.Lt); trace = None })
     with
     | Wire.Found r ->
       Alcotest.(check (result (list string) string)) "paid" (Ok [ "paid" ])
         r.Wire.sr_receipt.Vm.r_output
     | _ -> Alcotest.fail "search refused");
    Alcotest.(check int) "no base computed cold" before.Witness_tree.ws_cold
      (Cloud.witness_index_stats cloud).Witness_tree.ws_cold

(* A WAL that holds a Build and an Insert: the replayed Insert leaves
   the Build's leaves stale and its own cold, so recovery schedules the
   background warm. Once the warm counter moves every leaf is fresh,
   and a spread of searches computes no base cold, nor re-bases one. *)
let test_wal_insert_recovers_warm () =
  let rng, keys, acc_params, owner, records, shipment = durable_owner "wit-wal-insert" in
  let dir = fresh_state_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cfg = { Store.dir; fsync = false; snapshot_bytes = max_int } in
  let inserted = [ Slicer_types.record_of_value "wwi-a" 4; Slicer_types.record_of_value "wwi-b" 21 ] in
  (match Net.Service.recover cfg with
   | Error e -> Alcotest.failf "initial recover: %s" e
   | Ok (svc, _) ->
     Fun.protect ~finally:(fun () -> Option.iter Store.close (Net.Service.store svc)) @@ fun () ->
     let live = warms () in
     (match Net.Service.handle svc (build_req ~keys ~acc_params owner shipment) with
      | Wire.Accepted _ -> ()
      | _ -> Alcotest.fail "build refused");
     (match
        Net.Service.handle svc
          (Wire.Insert
             { client = "wit-owner"; request_id = "wwi#i"; shipment = Owner.insert owner inserted;
               trapdoor = Owner.export_trapdoor_state owner; trace = None })
      with
      | Wire.Accepted _ -> ()
      | _ -> Alcotest.fail "insert refused");
     (* The live service's two warms finish before the restart, so the
        counter's next move is the recovered service's. *)
     await_warms (live + 2));
  let warms0 = warms () in
  match Net.Service.recover cfg with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok (svc, stats) ->
    Fun.protect ~finally:(fun () -> Option.iter Store.close (Net.Service.store svc)) @@ fun () ->
    Alcotest.(check bool) "from the WAL alone" false stats.Net.Service.rs_snapshot;
    Alcotest.(check int) "the Build and the Insert" 2 stats.Net.Service.rs_replayed;
    await_warms (warms0 + 1);
    let cloud = Station.cloud (station_of svc) in
    let warmed = Cloud.witness_index_stats cloud in
    Alcotest.(check int) "every leaf fresh after the warm" warmed.Witness_tree.ws_leaves
      warmed.Witness_tree.ws_fresh;
    let user = hello_user svc "wit-wal-insert-user" in
    List.iteri
      (fun i query ->
        let tokens = User.gen_tokens ~rng user query in
        if tokens <> [] then
          match
            Net.Service.handle svc
              (Wire.Search
                 { client = "wit-wal-insert-user"; request_id = Printf.sprintf "wwi#%d" i;
                   batched = false; tokens; trace = None })
          with
          | Wire.Found r ->
            Alcotest.(check (result (list string) string)) "paid" (Ok [ "paid" ])
              r.Wire.sr_receipt.Vm.r_output
          | _ -> Alcotest.failf "search %d refused" i)
      (spread_queries (records @ inserted));
    let after = Cloud.witness_index_stats cloud in
    Alcotest.(check int) "no search computed a base cold" warmed.Witness_tree.ws_cold
      after.Witness_tree.ws_cold;
    Alcotest.(check int) "nor re-based one" warmed.Witness_tree.ws_refreshes
      after.Witness_tree.ws_refreshes

let test_service_survives_restart () =
  (* The full acceptance loop in-process: an empty durable service is
     populated over wire messages (Build, Hello, Search, Insert), the
     store is closed as a stand-in for the process dying, and recovery
     must reproduce the state — generation, escrow, and above all the
     idempotency cache: the retried (client, request id) replays its
     settled reply byte-for-byte instead of paying twice. *)
  let dir = fresh_state_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cfg = { Store.dir; fsync = false; snapshot_bytes = max_int } in
  let rng, keys, acc_params, owner, _records, shipment = durable_owner "dur-owner" in
  let svc =
    match Net.Service.recover cfg with
    | Ok (svc, stats) ->
      Alcotest.(check bool) "fresh dir: nothing to replay" true
        (stats.Net.Service.rs_replayed = 0 && not (Net.Service.built svc));
      svc
    | Error e -> Alcotest.failf "initial recover: %s" e
  in
  (match
     Net.Service.handle svc
       (Wire.Build
          { client = "dur-owner"; request_id = "dur#1"; width; payment = 500;
            acc = acc_params; tdp_n = keys.Keys.tdp_public.Rsa_tdp.pn;
            tdp_e = keys.Keys.tdp_public.Rsa_tdp.e;
            user_k = (Keys.for_user keys).Keys.u_k;
            user_k_r = (Keys.for_user keys).Keys.u_k_r; shipment;
            trapdoor = Owner.export_trapdoor_state owner; trace = None })
   with
   | Wire.Accepted { generation } -> Alcotest.(check int) "built" 1 generation
   | _ -> Alcotest.fail "build refused");
  let user =
    match Net.Service.handle svc (Wire.Hello { client = "dur-user"; proto = Wire.proto_version }) with
    | Wire.Welcome p ->
      User.create ~keys:p.Wire.pv_user_keys ~width:p.Wire.pv_width p.Wire.pv_trapdoor
    | _ -> Alcotest.fail "hello refused"
  in
  let tokens = User.gen_tokens ~rng user (q 30 Slicer_types.Lt) in
  let search_req =
    Wire.Search { client = "dur-user"; request_id = "dur-user#1"; batched = false; tokens; trace = None }
  in
  let first =
    match Net.Service.handle svc search_req with
    | Wire.Found _ as r -> r
    | _ -> Alcotest.fail "search refused"
  in
  let shipment2 = Owner.insert owner [ Slicer_types.record_of_value "dur-new" 3 ] in
  (match
     Net.Service.handle svc
       (Wire.Insert
          { client = "dur-owner"; request_id = "dur#2"; shipment = shipment2;
            trapdoor = Owner.export_trapdoor_state owner; trace = None })
   with
   | Wire.Accepted { generation } -> Alcotest.(check int) "inserted" 2 generation
   | _ -> Alcotest.fail "insert refused");
  Option.iter Store.close (Net.Service.store svc);
  (* "Restart": rebuild from disk alone. *)
  match Net.Service.recover cfg with
  | Error e -> Alcotest.failf "recover after restart: %s" e
  | Ok (svc2, stats) ->
    Alcotest.(check int) "Build, Register, Search, Insert replayed" 4
      stats.Net.Service.rs_replayed;
    Alcotest.(check bool) "recovered service is built" true (Net.Service.built svc2);
    Alcotest.(check int) "generation survived" 2 (Net.Service.generation svc2);
    let settled = Net.Service.searches_settled svc2 in
    (* The acceptance criterion: a retried (client, request id) replays
       the pre-crash settlement byte-for-byte — escrow untouched. *)
    let again = Net.Service.handle svc2 search_req in
    Alcotest.(check string) "cached reply survives the restart"
      (Wire.encode_response first) (Wire.encode_response again);
    Alcotest.(check int) "the replay did not settle escrow again" settled
      (Net.Service.searches_settled svc2);
    (* Fresh traffic settles fresh, against the recovered (post-Insert)
       index, and is still paid — the recovered Ac agrees with chain. *)
    (match Net.Service.handle svc2 (Wire.Hello { client = "dur-user-2"; proto = Wire.proto_version }) with
     | Wire.Welcome p ->
       let u2 =
         User.create ~keys:p.Wire.pv_user_keys ~width:p.Wire.pv_width p.Wire.pv_trapdoor
       in
       let t2 = User.gen_tokens ~rng u2 (q 3 Slicer_types.Eq) in
       (match
          Net.Service.handle svc2
            (Wire.Search
               { client = "dur-user-2"; request_id = "du2#1"; batched = false; tokens = t2; trace = None })
        with
        | Wire.Found r ->
          (match r.Wire.sr_receipt.Vm.r_output with
           | Ok [ "paid" ] -> ()
           | _ -> Alcotest.fail "fresh post-recovery search was not paid")
        | _ -> Alcotest.fail "fresh post-recovery search refused")
     | _ -> Alcotest.fail "hello after recovery refused");
    Alcotest.(check int) "exactly one new settlement" (settled + 1)
      (Net.Service.searches_settled svc2);
    Option.iter Store.close (Net.Service.store svc2)

(* A restarted shard checks the shard identity its state dir's contract
   records: a durable shard (0, 2) recovered as (1, 2) or as (0, 1) is
   refused with both identities named, and recovered as (0, 2) it
   serves searches that still verify. An empty state dir holds no
   contract, so any identity opens it. Both places a Build can sit are
   covered: checkpointed into a snapshot (a 1-byte cadence), whose
   contract storage holds the identity, and only in the WAL
   ([max_int]), whose Build record carries the identity it was applied
   as and replays under it. *)
let shard_identity_checked ~snapshot_bytes dir =
  let cfg = { Store.dir; fsync = false; snapshot_bytes } in
  let where = if snapshot_bytes = 1 then "Build in a snapshot" else "Build in the WAL only" in
  let rng, keys, acc_params, owner, records, shipment = durable_owner "shard-id-owner" in
  let svc =
    match Net.Service.recover ~shard:(0, 2) cfg with
    | Ok (svc, _) -> svc
    | Error e -> Alcotest.failf "an empty state dir must open: %s" e
  in
  (match
     Net.Service.handle svc
       (Wire.Build
          { client = "shard-id-owner"; request_id = "si#b"; width; payment = 500;
            acc = acc_params; tdp_n = keys.Keys.tdp_public.Rsa_tdp.pn;
            tdp_e = keys.Keys.tdp_public.Rsa_tdp.e;
            user_k = (Keys.for_user keys).Keys.u_k;
            user_k_r = (Keys.for_user keys).Keys.u_k_r; shipment;
            trapdoor = Owner.export_trapdoor_state owner; trace = None })
   with
   | Wire.Accepted _ -> ()
   | _ -> Alcotest.fail "build refused");
  Option.iter Store.close (Net.Service.store svc);
  List.iter
    (fun ((i, n) as shard) ->
      match Net.Service.recover ~shard cfg with
      | Ok (svc, _) ->
        Option.iter Store.close (Net.Service.store svc);
        Alcotest.failf "shard (0, 2)'s state dir (%s) recovered as (%d, %d)" where i n
      | Error e ->
        Alcotest.(check string) (where ^ ": the refusal names both identities")
          (Printf.sprintf
             "recovered identity mismatch: the state dir holds shard 0 of 2 settling eagerly; \
              this server is shard %d of %d settling eagerly"
             i n)
          e)
    [ (1, 2); (0, 1) ];
  match Net.Service.recover ~shard:(0, 2) cfg with
  | Error e -> Alcotest.failf "%s: recovering as the same shard: %s" where e
  | Ok (svc, _) ->
    Fun.protect ~finally:(fun () -> Option.iter Store.close (Net.Service.store svc)) @@ fun () ->
    let user =
      match Net.Service.handle svc (Wire.Hello { client = "shard-id-user"; proto = Wire.proto_version }) with
      | Wire.Welcome p ->
        User.create ~keys:p.Wire.pv_user_keys ~width:p.Wire.pv_width p.Wire.pv_trapdoor
      | _ -> Alcotest.fail "hello refused"
    in
    let query = q 30 Slicer_types.Lt in
    match
      Net.Service.handle svc
        (Wire.Search
           { client = "shard-id-user"; request_id = "si#1"; batched = false;
             tokens = User.gen_tokens ~rng user query; trace = None })
    with
    | Wire.Found r ->
      Alcotest.(check (result (list string) string)) "paid" (Ok [ "paid" ])
        r.Wire.sr_receipt.Vm.r_output;
      Alcotest.(check bool) "the user's check passes" true
        (Verifier.verify_claims acc_params ~ac:r.Wire.sr_ac r.Wire.sr_claims);
      Alcotest.(check (list string)) "the oracle's ids"
        (List.sort compare (Slicer_types.reference_search records query))
        (List.sort compare
           (User.decrypt_results user
              (List.concat_map (fun (c : Slicer_contract.claim) -> c.results) r.Wire.sr_claims)))
    | _ -> Alcotest.fail "search after recovery refused"

let test_shard_identity_checked_on_recovery () =
  List.iter
    (fun snapshot_bytes ->
      let dir = fresh_state_dir () in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      shard_identity_checked ~snapshot_bytes dir)
    [ 1; max_int ]

(* A Build record carries the identity it was applied as — the shard
   index and count and the settlement — before a Build request. One
   without the identity (the layout written before identities were
   journaled), with the shard identity alone (the layout written before
   the settlement joined it), or whose request is no Build, fails replay
   as undecodable: recovery refuses rather than guess an identity. *)
let test_build_record_without_identity_refused () =
  let piece = Bytesutil.sized_string in
  let build = Net.Client.seeded_build ~width ~payment:1000 ~seed:"bare-build" db in
  List.iter
    (fun (what, payload) ->
      let dir = fresh_state_dir () in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      let cfg = { Store.dir; fsync = false; snapshot_bytes = max_int } in
      let store, _ = Store.open_ cfg in
      ignore (Store.append_sized store ~tag:2 payload);
      Store.close store;
      match Net.Service.recover cfg with
      | Ok (svc, _) ->
        Option.iter Store.close (Net.Service.store svc);
        Alcotest.failf "%s: recovered" what
      | Error e ->
        Alcotest.(check string) what "WAL replay failed: event 1 (tag 2): undecodable request" e)
    [ ("a Build record without its identity", Wire.request_sized build);
      ( "a Build record with the shard identity alone",
        Bytesutil.sized_concat [ piece "0"; piece "1"; Wire.request_sized build ] );
      ( "a Build record holding a Ping",
        Bytesutil.sized_concat [ piece "0"; piece "1"; piece ""; Wire.request_sized Wire.Ping ] ) ]

let test_witness_index_survives_restart () =
  (* The snapshot carries the warm witness state: a restored service
     serves byte-identical VOs with its index already warm — zero cold
     recomputation, even for leaves that went stale across an Insert. *)
  let dir = fresh_state_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cfg = { Store.dir; fsync = false; snapshot_bytes = max_int } in
  let rng, keys, acc_params, owner, _records, shipment = durable_owner "windex-owner" in
  let svc =
    match Net.Service.recover cfg with
    | Ok (svc, _) -> svc
    | Error e -> Alcotest.failf "initial recover: %s" e
  in
  (match
     Net.Service.handle svc
       (Wire.Build
          { client = "windex-owner"; request_id = "wi#b"; width; payment = 500;
            acc = acc_params; tdp_n = keys.Keys.tdp_public.Rsa_tdp.pn;
            tdp_e = keys.Keys.tdp_public.Rsa_tdp.e;
            user_k = (Keys.for_user keys).Keys.u_k;
            user_k_r = (Keys.for_user keys).Keys.u_k_r; shipment;
            trapdoor = Owner.export_trapdoor_state owner; trace = None })
   with
   | Wire.Accepted _ -> ()
   | _ -> Alcotest.fail "build refused");
  let user =
    match Net.Service.handle svc (Wire.Hello { client = "windex-user"; proto = Wire.proto_version }) with
    | Wire.Welcome p ->
      User.create ~keys:p.Wire.pv_user_keys ~width:p.Wire.pv_width p.Wire.pv_trapdoor
    | _ -> Alcotest.fail "hello refused"
  in
  let tokens = User.gen_tokens ~rng user (q 30 Slicer_types.Lt) in
  let witnesses_of = function
    | Wire.Found f ->
      List.map (fun c -> Bigint.to_bytes_be c.Slicer_contract.witness) f.Wire.sr_claims
    | _ -> Alcotest.fail "search refused"
  in
  ignore
    (witnesses_of
       (Net.Service.handle svc
          (Wire.Search
             { client = "windex-user"; request_id = "wi#1"; batched = false; tokens; trace = None })));
  (* Insert so some warm leaves go stale, then query again: the second
     settlement re-bases them at the latest generation. *)
  let shipment2 = Owner.insert owner [ Slicer_types.record_of_value "wi-new" 3 ] in
  (match
     Net.Service.handle svc
       (Wire.Insert
          { client = "windex-owner"; request_id = "wi#i"; shipment = shipment2;
            trapdoor = Owner.export_trapdoor_state owner; trace = None })
   with
   | Wire.Accepted _ -> ()
   | _ -> Alcotest.fail "insert refused");
  let before =
    witnesses_of
      (Net.Service.handle svc
         (Wire.Search
            { client = "windex-user"; request_id = "wi#2"; batched = false; tokens; trace = None }))
  in
  Option.iter Store.close (Net.Service.store svc);
  (* Restart 1: WAL replay reconstructs the index but runs no warm, so
     the witness tree stays cold until searches touch it: only the
     leaves the replayed searches touched are warm, and the
     re-anchoring checkpoint snapshots those. *)
  (match Net.Service.recover cfg with
   | Error e -> Alcotest.failf "first recover: %s" e
   | Ok (svc2, _) -> Option.iter Store.close (Net.Service.store svc2));
  (* Restart 2: snapshot-only restore — nothing replayed, so any warmth
     must come from the snapshot's witness blob. *)
  match Net.Service.recover cfg with
  | Error e -> Alcotest.failf "second recover: %s" e
  | Ok (svc3, stats) ->
    Alcotest.(check int) "snapshot-only restore" 0 stats.Net.Service.rs_replayed;
    let cloud =
      match Net.Service.station svc3 with
      | Some st -> Station.cloud st
      | None -> Alcotest.fail "recovered service has no station"
    in
    let ws = Cloud.witness_index_stats cloud in
    Alcotest.(check bool) "restored leaves are cached" true (ws.Witness_tree.ws_cached > 0);
    Alcotest.(check int) "no cold work at restore" 0 ws.Witness_tree.ws_cold;
    let after =
      witnesses_of
        (Net.Service.handle svc3
           (Wire.Search
              { client = "windex-user"; request_id = "wi#3"; batched = false; tokens; trace = None }))
    in
    Alcotest.(check (list string)) "restored index serves identical witnesses" before after;
    Alcotest.(check int) "served without full recomputation" 0
      (Cloud.witness_index_stats cloud).Witness_tree.ws_cold;
    Option.iter Store.close (Net.Service.store svc3)

let test_old_snapshot_layouts_refused () =
  (* One snapshot layout decodes. The seven older ones, rebuilt from a
     real v8 snapshot (v7, v6, v5, v4 and v3 under their own magic over
     the same pieces, v2 without the settle piece, v1 without the
     witness piece either), are refused as a codec mismatch, and so are
     the empty-v1 and empty-v2 snapshots an older build checkpoints
     before its first Build, while the v8 original written the same way
     recovers. *)
  let dir = fresh_state_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cfg = { Store.dir; fsync = false; snapshot_bytes = max_int } in
  let _rng, keys, acc_params, owner, _records, shipment = durable_owner "old-snap-owner" in
  let recover cfg =
    match Net.Service.recover cfg with
    | Ok (svc, _) -> Option.iter Store.close (Net.Service.store svc)
    | Error e -> Alcotest.failf "recover: %s" e
  in
  (match Net.Service.recover cfg with
   | Error e -> Alcotest.failf "initial recover: %s" e
   | Ok (svc, _) ->
     (match
        Net.Service.handle svc
          (Wire.Build
             { client = "old-snap-owner"; request_id = "os#b"; width; payment = 500;
               acc = acc_params; tdp_n = keys.Keys.tdp_public.Rsa_tdp.pn;
               tdp_e = keys.Keys.tdp_public.Rsa_tdp.e;
               user_k = (Keys.for_user keys).Keys.u_k;
               user_k_r = (Keys.for_user keys).Keys.u_k_r; shipment;
               trapdoor = Owner.export_trapdoor_state owner; trace = None })
      with
      | Wire.Accepted _ -> ()
      | _ -> Alcotest.fail "build refused");
     Option.iter Store.close (Net.Service.store svc));
  (* Recovery re-anchors on a checkpoint of the built state. *)
  recover cfg;
  let v8 =
    let store, rc = Store.open_ cfg in
    Store.close store;
    match rc.Store.rc_snapshot with
    | Some (_, payload) -> payload
    | None -> Alcotest.fail "no snapshot after recovery"
  in
  let pieces =
    match Bytesutil.split v8 with Some p -> p | None -> Alcotest.fail "v8 snapshot does not split"
  in
  let n = List.length pieces in
  let state = List.filteri (fun i _ -> i > 0 && i < n - 2) pieces in
  let witness = List.nth pieces (n - 2) in
  let settle = List.nth pieces (n - 1) in
  let in_fresh_dir payload f =
    let old_dir = fresh_state_dir () in
    Fun.protect ~finally:(fun () -> rm_rf old_dir) @@ fun () ->
    let old_cfg = { cfg with Store.dir = old_dir } in
    let store, _ = Store.open_ old_cfg in
    Store.checkpoint store payload;
    Store.close store;
    f old_cfg
  in
  in_fresh_dir v8 recover;
  List.iter
    (fun (magic, payload) ->
      in_fresh_dir payload @@ fun old_cfg ->
      match Net.Service.recover old_cfg with
      | Error e ->
        Alcotest.(check string) (magic ^ " refused") "snapshot failed to decode (codec mismatch)" e
      | Ok (svc, _) ->
        Option.iter Store.close (Net.Service.store svc);
        Alcotest.failf "%s snapshot was decoded" magic)
    [ ("slicer-service-built-v7",
       Bytesutil.concat (("slicer-service-built-v7" :: state) @ [ witness; settle ]));
      ("slicer-service-built-v6",
       Bytesutil.concat (("slicer-service-built-v6" :: state) @ [ witness; settle ]));
      ("slicer-service-built-v5",
       Bytesutil.concat (("slicer-service-built-v5" :: state) @ [ witness; settle ]));
      ("slicer-service-built-v4",
       Bytesutil.concat (("slicer-service-built-v4" :: state) @ [ witness; settle ]));
      ("slicer-service-built-v3",
       Bytesutil.concat (("slicer-service-built-v3" :: state) @ [ witness; settle ]));
      ("slicer-service-built-v2",
       Bytesutil.concat (("slicer-service-built-v2" :: state) @ [ witness ]));
      ("slicer-service-built-v1", Bytesutil.concat ("slicer-service-built-v1" :: state));
      ("slicer-service-empty-v2", Bytesutil.concat [ "slicer-service-empty-v2" ]);
      ("slicer-service-empty-v1", Bytesutil.concat [ "slicer-service-empty-v1" ]) ]

(* The WAL's bytes after a seeded durable sequence — Build, Register,
   a Search into an open settle batch, Insert, a forced flush — and the
   snapshot that recovery then re-anchors on. The WAL was hashed on the
   commit before records were streamed from the request's encoding; the
   snapshot was re-hashed when each claim's hint moved into the claims
   blob (magic slicer-service-built-v5): the cached Found reply grew by
   the hints piece, and the committed leaf, which hashes that blob, moved
   the batch's root. The WAL was re-hashed when the Build's record began
   with the shard identity it was applied as: 14 bytes, the pieces "0"
   and "1" and the request's own length prefix; and again when the
   settlement identity joined the shard's: 25 bytes, one piece holding
   the batch size 64, the deposit 100000 and the window 3. The snapshot
   was re-hashed for layout v6: the identity and the chain's sealed
   head joined it, and the owner and cloud addresses and the validator
   names, which every wire-built database shares, left it; every other
   piece is byte-identical. It was re-hashed again for layout v7, 165
   bytes shorter: the cached Found reply's 11 results lost their 4-byte
   lengths (44 bytes), and its escrow receipt's SearchRequested event
   no longer repeats the one token (4 + 117 bytes). Both were re-hashed
   for revision 8, whose shipments carry a third piece: the WAL grew by
   4,088 bytes, the Build's 60 witnesses (4 + 60 x 68) and the Insert's
   empty piece (4), and the snapshot (layout v8) by 4,947, the exported
   witnesses of the 60 Build leaves, which the replayed Build grafts.
   Neither may move one byte. *)
let test_wal_and_snapshot_golden () =
  let dir = fresh_state_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cfg = { Store.dir; fsync = false; snapshot_bytes = max_int } in
  let settle =
    { Settle_batch.sb_size = 64; sb_window_ms = 1e9; sb_deposit = 100_000;
      sb_dispute_blocks = 3 }
  in
  let rng, keys, acc_params, owner, _records, shipment = durable_owner "wal-golden" in
  let svc =
    match Net.Service.recover ~settle cfg with
    | Ok (svc, _) -> svc
    | Error e -> Alcotest.failf "initial recover: %s" e
  in
  let accepted what = function
    | Wire.Accepted _ -> ()
    | _ -> Alcotest.failf "%s refused" what
  in
  accepted "build"
    (Net.Service.handle svc
       (Wire.Build
          { client = "wal-owner"; request_id = "wal#1"; width; payment = 500; acc = acc_params;
            tdp_n = keys.Keys.tdp_public.Rsa_tdp.pn; tdp_e = keys.Keys.tdp_public.Rsa_tdp.e;
            user_k = (Keys.for_user keys).Keys.u_k; user_k_r = (Keys.for_user keys).Keys.u_k_r;
            shipment; trapdoor = Owner.export_trapdoor_state owner; trace = None }));
  let user =
    match
      Net.Service.handle svc (Wire.Hello { client = "wal-user"; proto = Wire.proto_version })
    with
    | Wire.Welcome p ->
      User.create ~keys:p.Wire.pv_user_keys ~width:p.Wire.pv_width p.Wire.pv_trapdoor
    | _ -> Alcotest.fail "hello refused"
  in
  (match
     Net.Service.handle svc
       (Wire.Search
          { client = "wal-user"; request_id = "wal-user#1"; batched = false;
            tokens = User.gen_tokens ~rng user (q 30 Slicer_types.Lt); trace = None })
   with
   | Wire.Found _ -> ()
   | _ -> Alcotest.fail "search refused");
  accepted "insert"
    (Net.Service.handle svc
       (Wire.Insert
          { client = "wal-owner"; request_id = "wal#2";
            shipment = Owner.insert owner [ Slicer_types.record_of_value "wal-new" 3 ];
            trapdoor = Owner.export_trapdoor_state owner; trace = None }));
  Net.Service.settle_flush svc;
  Option.iter Store.close (Net.Service.store svc);
  let read name = In_channel.with_open_bin (Filename.concat dir name) In_channel.input_all in
  let wal = read "wal.log" in
  Alcotest.(check int) "wal.log size" 25564 (String.length wal);
  Alcotest.(check string) "wal.log sha-256"
    "f3fbebd31f4758853c26329a7c7d4144a5f0a9633719c33767a363e4aac175ee" (Sha256.digest_hex wal);
  match Net.Service.recover ~settle cfg with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok (svc, stats) ->
    Option.iter Store.close (Net.Service.store svc);
    Alcotest.(check int) "every record replayed" 5 stats.Net.Service.rs_replayed;
    (* Recovery re-anchors on a snapshot at the last record's seq. *)
    let snap = read "snap-5.bin" in
    Alcotest.(check int) "snapshot size" 20562 (String.length snap);
    Alcotest.(check string) "snapshot sha-256"
      "92b0dda3d5fcf5e8a4f0f4461bbf994f45250c2f86454a58ebdfac368bb0e7f0" (Sha256.digest_hex snap)

(* The real thing: a separate slicer-server process ([Server_proc]),
   killed with SIGKILL mid-load, recovered from its state directory. *)

let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Net.Server.resolve_host "127.0.0.1", port));
  fd

let raw_request fd req =
  Net.Frame.write fd ~tag:Wire.request_tag (Wire.encode_request req);
  match Net.Frame.read ~timeout:20. fd with
  | Error e -> Alcotest.failf "raw read: %s" (Net.Frame.error_to_string e)
  | Ok { Net.Frame.payload; _ } ->
    (match Wire.decode_response payload with
     | Some resp -> resp
     | None -> Alcotest.fail "raw response did not decode")

(* Two servers on one state directory: the second's recovery would
   truncate the WAL tail the first is appending to, so it must exit
   non-zero with an error naming the directory, and the first must keep
   serving. *)
let test_second_server_refused_on_live_state_dir () =
  match server_exe () with
  | None -> Alcotest.skip ()
  | Some exe ->
    let dir = fresh_state_dir () in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let pid, out_fd, port = spawn_server ~records:0 ~exe ~dir () in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
        try Unix.close out_fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    let status, err = refused_start ~records:0 ~exe ~dir () in
    Alcotest.(check bool) "second server exits non-zero" true (status <> Unix.WEXITED 0);
    let expected = Printf.sprintf "state dir %s is in use by another live process" dir in
    if not (contains err expected) then Alcotest.failf "stderr %S lacks %S" err expected;
    let fd = raw_connect port in
    Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) @@ fun () ->
    match raw_request fd Wire.Ping with
    | Wire.Pong -> ()
    | _ -> Alcotest.fail "the first server stopped answering"

let test_sigkill_mid_load_recovers () =
  match server_exe () with
  | None -> Alcotest.skip ()
  | Some exe ->
    let dir = fresh_state_dir () in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let pid, out_fd, port = spawn_server ~records:0 ~exe ~dir () in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
        try Unix.close out_fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    let ep = Net.Server.Tcp ("127.0.0.1", port) in
    let rng, keys, acc_params, owner, records, shipment = durable_owner "sigkill-owner" in
    (* The owner bootstraps the durable server over the wire. *)
    (match Net.Client.connect ~name:"sigkill-owner" ~provision:false ep with
     | Error e -> Alcotest.failf "owner connect: %s" (Net.Client.error_to_string e)
     | Ok oc ->
       (match
          Net.Client.build oc ~width ~payment:500 ~acc:acc_params
            ~tdp_public:keys.Keys.tdp_public ~user_keys:(Keys.for_user keys) ~shipment
            ~trapdoor:(Owner.export_trapdoor_state owner)
        with
        | Ok generation -> Alcotest.(check int) "built over the wire" 1 generation
        | Error e -> Alcotest.failf "build: %s" (Net.Client.error_to_string e));
       Net.Client.close oc);
    (* A pinned (client, request id) settles before the kill: the probe
       whose reply must replay byte-identically after recovery. *)
    let probe_req, probe_reply =
      let fd = raw_connect port in
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      match raw_request fd (Wire.Hello { client = "sigkill-probe"; proto = Wire.proto_version }) with
      | Wire.Welcome p ->
        let user =
          User.create ~keys:p.Wire.pv_user_keys ~width:p.Wire.pv_width p.Wire.pv_trapdoor
        in
        let tokens = User.gen_tokens ~rng user (q 30 Slicer_types.Lt) in
        let req =
          Wire.Search
            { client = "sigkill-probe"; request_id = "sigkill-probe#1"; batched = false; trace = None;
              tokens }
        in
        (match raw_request fd req with
         | Wire.Found _ as reply -> (req, reply)
         | _ -> Alcotest.fail "probe search refused")
      | _ -> Alcotest.fail "probe hello refused"
    in
    (* Sustained load from a second client; SIGKILL lands mid-flight. *)
    let stop = ref false in
    let loader () =
      let ccfg =
        { Net.Client.default_config with
          max_attempts = 2; backoff_base = 0.02; request_timeout = 10. }
      in
      match Net.Client.connect ~config:ccfg ~name:"sigkill-load" ep with
      | Error _ -> ()
      | Ok c ->
        (try
           while not !stop do
             match Net.Client.search c (q 10 Slicer_types.Gt) with
             | Ok _ -> ()
             | Error _ -> raise Exit
           done
         with _ -> ());
        (try Net.Client.close c with _ -> ())
    in
    let th = Thread.create loader () in
    Thread.delay 0.3;
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    stop := true;
    Thread.join th;
    (* Recover from the survivor: the state directory. [recover] itself
       re-verifies that the recovered primes re-accumulate to the
       on-chain Ac — an Ok here is the accumulator acceptance check. *)
    let cfg = { Store.dir; fsync = true; snapshot_bytes = 4 * 1024 * 1024 } in
    (match Net.Service.recover cfg with
     | Error e -> Alcotest.failf "recovery after SIGKILL: %s" e
     | Ok (svc, _stats) ->
       Alcotest.(check bool) "recovered service is built" true (Net.Service.built svc);
       Alcotest.(check int) "generation survived the kill" 1 (Net.Service.generation svc);
       let settled = Net.Service.searches_settled svc in
       let again = Net.Service.handle svc probe_req in
       Alcotest.(check string) "probe reply replays byte-for-byte across the kill"
         (Wire.encode_response probe_reply) (Wire.encode_response again);
       Alcotest.(check int) "the probe retry did not settle twice" settled
         (Net.Service.searches_settled svc);
       (* Serve the recovered state and answer a fresh client correctly. *)
       let srv = Net.Server.start (Net.Service.handle svc) in
       Fun.protect
         ~finally:(fun () ->
           Net.Server.stop srv;
           Option.iter Store.close (Net.Service.store svc))
       @@ fun () ->
       match Net.Client.connect ~name:"sigkill-after" (Net.Server.endpoint srv) with
       | Error e -> Alcotest.failf "post-recovery connect: %s" (Net.Client.error_to_string e)
       | Ok c ->
         let query = q 30 Slicer_types.Lt in
         (match Net.Client.search c query with
          | Ok out ->
            Alcotest.(check bool) "post-recovery search verified" true
              out.Protocol.so_verified;
            check_ids "post-recovery ids match the oracle"
              (Slicer_types.reference_search records query) out.Protocol.so_ids
          | Error e -> Alcotest.failf "post-recovery search: %s" (Net.Client.error_to_string e));
         Net.Client.close c)

(* A self-seeded server ([--records N]) gets its database from its own
   owner's Build, journaled like a remote owner's: SIGKILLed and
   restarted with the same flags it recovers that Build instead of
   seeding again, so a pinned request replays byte-for-byte and a fresh
   search returns the same ids. Started as shard 1 of 2, its contract
   holds that identity: restarting as itself recovers, and restarting
   as a lone server is refused. *)
let test_self_seeded_server_recovers () =
  match server_exe () with
  | None -> Alcotest.skip ()
  | Some exe ->
    let seed_flags = [ "--seed"; "self-seeded"; "--width"; string_of_int width ] in
    let records = Gen.uniform_records ~rng:(Drbg.create ~seed:"self-seeded:data") ~width 30 in
    let query = q 30 Slicer_types.Lt in
    let stop (pid, out_fd, _) =
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      try Unix.close out_fd with Unix.Unix_error _ -> ()
    in
    let with_server ?(extra = []) dir f =
      let server = spawn_server ~extra:(seed_flags @ extra) ~records:30 ~exe ~dir () in
      Fun.protect ~finally:(fun () -> stop server) (fun () ->
          let _, _, port = server in
          f port)
    in
    (* The verified ids of a fresh client's search, at generation 1. *)
    let search_ids port name =
      match Net.Client.connect ~name (Net.Server.Tcp ("127.0.0.1", port)) with
      | Error e -> Alcotest.failf "%s connect: %s" name (Net.Client.error_to_string e)
      | Ok c ->
        Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
        Alcotest.(check int) (name ^ ": generation") 1 (Net.Client.generation c);
        (match Net.Client.search c query with
         | Ok out ->
           Alcotest.(check bool) (name ^ ": verified") true out.Protocol.so_verified;
           sorted out.Protocol.so_ids
         | Error e -> Alcotest.failf "%s search: %s" name (Net.Client.error_to_string e))
    in
    (* A pinned (client, request id) search over a raw socket. *)
    let probe port =
      let fd = raw_connect port in
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) @@ fun () ->
      match raw_request fd (Wire.Hello { client = "self-seed-probe"; proto = Wire.proto_version }) with
      | Wire.Welcome p ->
        let user = User.create ~keys:p.Wire.pv_user_keys ~width:p.Wire.pv_width p.Wire.pv_trapdoor in
        let tokens = User.gen_tokens ~rng:(Drbg.create ~seed:"self-seed-probe") user query in
        raw_request fd
          (Wire.Search
             { client = "self-seed-probe"; request_id = "probe#1"; batched = false; tokens;
               trace = None })
      | _ -> Alcotest.fail "probe hello refused"
    in
    let dir = fresh_state_dir () in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let ids, pinned =
      with_server dir (fun port ->
          let ids = search_ids port "self-seed-user" in
          check_ids "the seeded records' ids" (Slicer_types.reference_search records query) ids;
          (ids, probe port))
    in
    with_server dir (fun port ->
        Alcotest.(check string) "the pinned search replays: the Build was recovered, not re-seeded"
          (Wire.encode_response pinned) (Wire.encode_response (probe port));
        Alcotest.(check (list string)) "same ids after the restart" ids
          (search_ids port "self-seed-user-2"));
    let dir = fresh_state_dir () in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let shard_1_of_2 = [ "--shard-id"; "1"; "--shard-count"; "2" ] in
    with_server ~extra:shard_1_of_2 dir (fun port -> ignore (search_ids port "shard-user"));
    with_server ~extra:shard_1_of_2 dir (fun port ->
        Alcotest.(check (list string)) "the restarted shard's ids" ids
          (search_ids port "shard-user-2"));
    let status, err = refused_start ~extra:seed_flags ~records:30 ~exe ~dir () in
    Alcotest.(check bool) "a lone server on shard 1's state dir exits non-zero" true
      (status <> Unix.WEXITED 0);
    let expected =
      "recovered identity mismatch: the state dir holds shard 1 of 2 settling eagerly; this \
       server is shard 0 of 1 settling eagerly"
    in
    if not (contains err expected) then Alcotest.failf "stderr %S lacks %S" err expected

(* --- recovery as one invariant ------------------------------------------ *)

let recover_exn ?settle cfg =
  match Net.Service.recover ?settle cfg with
  | Ok (svc, stats) -> (svc, stats)
  | Error e -> Alcotest.failf "recover %s: %s" cfg.Store.dir e

let close_service svc = Option.iter Store.close (Net.Service.store svc)

let station_of svc =
  match Net.Service.station svc with Some st -> st | None -> Alcotest.fail "no station"

let hello_user svc client =
  match Net.Service.handle svc (Wire.Hello { client; proto = Wire.proto_version }) with
  | Wire.Welcome p -> User.create ~keys:p.Wire.pv_user_keys ~width:p.Wire.pv_width p.Wire.pv_trapdoor
  | _ -> Alcotest.failf "hello %s refused" client

let found svc req =
  match Net.Service.handle svc req with
  | Wire.Found r -> r
  | Wire.Refused { detail; _ } -> Alcotest.failf "search refused: %s" detail
  | _ -> Alcotest.fail "expected a search result"

let receipt_of svc ~client request_id =
  match Net.Service.handle svc (Wire.Receipt { client; request_id }) with
  | Wire.Receipt_reply st -> st
  | _ -> Alcotest.fail "expected a receipt"

let chain_head svc =
  let ledger = Station.ledger (station_of svc) in
  (Ledger.height ledger, Bytesutil.to_hex (Block.hash (Ledger.head ledger)))

(* Every file of a state dir but its lock, with its bytes. *)
let dir_files dir =
  Sys.readdir dir |> Array.to_list |> List.filter (fun f -> f <> "LOCK") |> List.sort compare
  |> List.map (fun f ->
         (f, In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))

let copy_dir ~from dir =
  Unix.mkdir dir 0o755;
  List.iter
    (fun (f, bytes) ->
      Out_channel.with_open_bin (Filename.concat dir f) (fun oc -> output_string oc bytes))
    (dir_files from)

(* A snapshot keeps its chain's sealed head. A durable service settling
   in batches of 2 with a 3-block window builds and serves 12 searches;
   restarted once by WAL replay and again from the snapshot that
   recovery wrote, it resumes at the same height and head hash, its
   chain validates, and the batch committed by the 12th search
   finalizes within 2 more searches, as it would without the restarts. *)
let test_snapshot_restart_resumes_the_chain () =
  let dir = fresh_state_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cfg = { Store.dir; fsync = false; snapshot_bytes = max_int } in
  let settle =
    { Settle_batch.sb_size = 2; sb_window_ms = 1e9; sb_deposit = 100_000;
      sb_dispute_blocks = 3 }
  in
  let client = "head-user" in
  let rng = Drbg.create ~seed:"head-user" in
  let svc, _ = recover_exn ~settle cfg in
  (match Net.Service.handle svc (Net.Client.seeded_build ~width ~payment:1000 ~seed:"head" db) with
   | Wire.Accepted _ -> ()
   | _ -> Alcotest.fail "build refused");
  let user = hello_user svc client in
  let search svc i =
    ignore
      (found svc
         (Wire.Search
            { client; request_id = Printf.sprintf "head#%d" i; batched = false;
              tokens = User.gen_tokens ~rng user (q 30 Slicer_types.Lt); trace = None }))
  in
  for i = 1 to 12 do search svc i done;
  let served = chain_head svc in
  close_service svc;
  let replayed, stats = recover_exn ~settle cfg in
  Alcotest.(check bool) "the first restart replays the WAL" true
    ((not stats.Net.Service.rs_snapshot) && stats.Net.Service.rs_replayed > 0);
  Alcotest.(check (pair int string)) "WAL replay: height and head hash" served (chain_head replayed);
  close_service replayed;
  let restored, stats = recover_exn ~settle cfg in
  Fun.protect ~finally:(fun () -> close_service restored) @@ fun () ->
  Alcotest.(check bool) "the second restart reads the snapshot" true
    (stats.Net.Service.rs_snapshot && stats.Net.Service.rs_replayed = 0);
  Alcotest.(check (pair int string)) "snapshot: height and head hash" served (chain_head restored);
  Alcotest.(check (result unit string)) "the resumed chain validates" (Ok ())
    (Ledger.validate (Station.ledger (station_of restored)));
  (match receipt_of restored ~client "head#12" with
   | Wire.Rcp_committed _ -> ()
   | _ -> Alcotest.fail "the 12th search's batch should be committed");
  let rec drive i =
    if i > 14 then Alcotest.fail "the last committed batch did not finalize within 2 searches";
    search restored i;
    match receipt_of restored ~client "head#12" with
    | Wire.Rcp_final _ -> ()
    | _ -> drive (i + 1)
  in
  drive 13

(* A state dir keeps the settlement it was built under. A session
   settling in batches of 8 leaves three searches pending; restarted
   eagerly, or with another batch size, deposit or dispute window, it is
   refused with both identities named and its files untouched, from a
   WAL-only state dir and from one with a snapshot alike. Restarted with
   its own flags it recovers, and the three receipts are still
   pending. *)
let test_restart_under_another_settlement_refused () =
  let settle =
    { Settle_batch.sb_size = 8; sb_window_ms = 1e9; sb_deposit = 100_000;
      sb_dispute_blocks = 3 }
  in
  let client = "ident-user" in
  let rids = [ "ident#1"; "ident#2"; "ident#3" ] in
  let holds =
    "the state dir holds shard 0 of 1 settling in batches of 8 (3-block window, 100000-wei \
     deposit)"
  in
  List.iter
    (fun with_snapshot ->
      let where = if with_snapshot then "snapshot state dir" else "WAL-only state dir" in
      let dir = fresh_state_dir () in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      let cfg = { Store.dir; fsync = false; snapshot_bytes = max_int } in
      let svc, _ = recover_exn ~settle cfg in
      (match
         Net.Service.handle svc (Net.Client.seeded_build ~width ~payment:1000 ~seed:"ident" db)
       with
       | Wire.Accepted _ -> ()
       | _ -> Alcotest.fail "build refused");
      let rng = Drbg.create ~seed:client in
      let user = hello_user svc client in
      List.iter
        (fun request_id ->
          ignore
            (found svc
               (Wire.Search
                  { client; request_id; batched = false;
                    tokens = User.gen_tokens ~rng user (q 30 Slicer_types.Lt); trace = None })))
        rids;
      close_service svc;
      (* Any recovery writes a snapshot. *)
      if with_snapshot then close_service (fst (recover_exn ~settle cfg));
      let files = dir_files dir in
      Alcotest.(check bool) (where ^ ": the Build sits in a snapshot") with_snapshot
        (List.exists
           (fun (f, bytes) ->
             String.starts_with ~prefix:"snap-" f && contains bytes "slicer-service-built")
           files);
      List.iter
        (fun (what, other, this) ->
          (match Net.Service.recover ?settle:other cfg with
           | Ok (svc, _) ->
             close_service svc;
             Alcotest.failf "%s: a restart %s recovered" where what
           | Error e ->
             Alcotest.(check string)
               (Printf.sprintf "%s: a restart %s is refused" where what)
               (Printf.sprintf "recovered identity mismatch: %s; this server is shard 0 of 1 %s"
                  holds this)
               e);
          Alcotest.(check bool)
            (Printf.sprintf "%s: the refused restart %s left the files alone" where what)
            true
            (dir_files dir = files))
        [ ("eager", None, "settling eagerly");
          ( "with batches of 4",
            Some { settle with Settle_batch.sb_size = 4 },
            "settling in batches of 4 (3-block window, 100000-wei deposit)" );
          ( "with another deposit",
            Some { settle with Settle_batch.sb_deposit = 200_000 },
            "settling in batches of 8 (3-block window, 200000-wei deposit)" );
          ( "with another dispute window",
            Some { settle with Settle_batch.sb_dispute_blocks = 5 },
            "settling in batches of 8 (5-block window, 100000-wei deposit)" ) ];
      let svc, _ = recover_exn ~settle cfg in
      Fun.protect ~finally:(fun () -> close_service svc) @@ fun () ->
      List.iter
        (fun rid ->
          match receipt_of svc ~client rid with
          | Wire.Rcp_pending _ -> ()
          | _ -> Alcotest.failf "%s: %s is no longer pending" where rid)
        rids)
    [ false; true ]

(* Recovery is one invariant: a durable session — Build, Hello, batched
   searches (one batch spans an Insert), a refused tokenless search, a
   forced flush and a dispute — recovered by WAL
   replay and, in another dir, from the snapshot that recovery wrote,
   yields two services that agree on the chain's height and head hash,
   every account, the contract's storage, the generation, each batch's
   status and their snapshots' bytes (users and reply cache included);
   on both, a pinned search and the dispute replay byte for byte and
   settle nothing again. *)
let test_wal_replay_and_snapshot_agree () =
  let dir = fresh_state_dir () in
  let snap_dir = fresh_state_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir; rm_rf snap_dir) @@ fun () ->
  let cfg = { Store.dir; fsync = false; snapshot_bytes = max_int } in
  let settle =
    { Settle_batch.sb_size = 2; sb_window_ms = 1e9; sb_deposit = 100_000;
      sb_dispute_blocks = 50 }
  in
  let rng, keys, acc_params, owner, _records, shipment = durable_owner "inv-owner" in
  let svc, _ = recover_exn ~settle cfg in
  (match
     Net.Service.handle svc
       (Wire.Build
          { client = "inv-owner"; request_id = "inv#b"; width; payment = 500; acc = acc_params;
            tdp_n = keys.Keys.tdp_public.Rsa_tdp.pn; tdp_e = keys.Keys.tdp_public.Rsa_tdp.e;
            user_k = (Keys.for_user keys).Keys.u_k; user_k_r = (Keys.for_user keys).Keys.u_k_r;
            shipment; trapdoor = Owner.export_trapdoor_state owner; trace = None })
   with
   | Wire.Accepted _ -> ()
   | _ -> Alcotest.fail "build refused");
  let client = "inv-user" in
  let user = hello_user svc client in
  let search_req request_id query =
    Wire.Search
      { client; request_id; batched = false; tokens = User.gen_tokens ~rng user query;
        trace = None }
  in
  let pinned = search_req "inv#1" (q 30 Slicer_types.Lt) in
  let pinned_reply = Wire.encode_response (Wire.Found (found svc pinned)) in
  let disputed = found svc (search_req "inv#2" (q 8 Slicer_types.Gt)) in
  (* inv#3 opens the second batch of 2; inv#4 closes it after the
     Insert, so its members settle under two values of Ac. *)
  ignore (found svc (search_req "inv#3" (q 40 Slicer_types.Lt)));
  (* No record holds 3 yet, so the query has no token: it is refused
     before any escrow and leaves nothing to replay. *)
  (match Net.Service.handle svc (search_req "inv-none" (q 3 Slicer_types.Eq)) with
   | Wire.Refused { code = Wire.Bad_request; _ } -> ()
   | _ -> Alcotest.fail "a tokenless search must be refused");
  (match
     Net.Service.handle svc
       (Wire.Insert
          { client = "inv-owner"; request_id = "inv#i";
            shipment = Owner.insert owner [ Slicer_types.record_of_value "inv-new" 3 ];
            trapdoor = Owner.export_trapdoor_state owner; trace = None })
   with
   | Wire.Accepted _ -> ()
   | _ -> Alcotest.fail "insert refused");
  (* The owner's new trapdoor state reaches the user, so 3 has a token. *)
  User.update_state user (Owner.export_trapdoor_state owner);
  ignore (found svc (search_req "inv#4" (q 20 Slicer_types.Gt)));
  (* inv#5 is still open in the third batch when the flush commits it. *)
  ignore (found svc (search_req "inv#5" (q 3 Slicer_types.Eq)));
  Net.Service.settle_flush svc;
  (* An honest leaf: the dispute is rejected on chain, and that verdict
     is an effect too. *)
  let dispute =
    Wire.Dispute
      { client; request_id = "inv#2"; shard = 0;
        claims_blob = Slicer_contract.encode_claims disputed.Wire.sr_claims;
        batch_witness = disputed.Wire.sr_batch_witness }
  in
  let verdict =
    match Net.Service.handle svc dispute with
    | Wire.Disputed { dp_slashed = false; _ } as r -> Wire.encode_response r
    | Wire.Refused { detail; _ } -> Alcotest.failf "dispute refused: %s" detail
    | _ -> Alcotest.fail "an honest leaf should survive its dispute"
  in
  close_service svc;
  (* The WAL's record tags: Build (2), Register (1), three Searches (4),
     the Insert (3), two Searches, the forced Flush (6) and the Dispute
     (8). The refusal is not journaled. *)
  let store, rc = Store.open_ cfg in
  Store.close store;
  Alcotest.(check (list int)) "the WAL journals the forced flush" [ 2; 1; 4; 4; 4; 3; 4; 4; 6; 8 ]
    (List.map (fun e -> e.Store.ev_tag) rc.Store.rc_events);
  let replayed, stats = recover_exn ~settle cfg in
  Fun.protect ~finally:(fun () -> close_service replayed) @@ fun () ->
  Alcotest.(check bool) "one recovery replays the WAL" true
    ((not stats.Net.Service.rs_snapshot) && stats.Net.Service.rs_replayed > 0);
  copy_dir ~from:dir snap_dir;
  let restored, stats = recover_exn ~settle { cfg with Store.dir = snap_dir } in
  Fun.protect ~finally:(fun () -> close_service restored) @@ fun () ->
  Alcotest.(check bool) "the other restores the snapshot" true
    (stats.Net.Service.rs_snapshot && stats.Net.Service.rs_replayed = 0);
  let state svc =
    let st = station_of svc in
    (Ledger.state (Station.ledger st), Station.contract st)
  in
  Alcotest.(check (pair int string)) "height and head hash" (chain_head replayed)
    (chain_head restored);
  Alcotest.(check bool) "every account" true
    (Vm.accounts (fst (state replayed)) = Vm.accounts (fst (state restored)));
  Alcotest.(check bool) "the contract's storage" true
    (Vm.storage_entries (fst (state replayed)) (snd (state replayed))
     = Vm.storage_entries (fst (state restored)) (snd (state restored)));
  Alcotest.(check int) "generation" (Net.Service.generation replayed)
    (Net.Service.generation restored);
  List.iter
    (fun rid ->
      Alcotest.(check string) ("the status of " ^ rid)
        (Wire.encode_response (Wire.Receipt_reply (receipt_of replayed ~client rid)))
        (Wire.encode_response (Wire.Receipt_reply (receipt_of restored ~client rid))))
    [ "inv#1"; "inv#2"; "inv#3"; "inv#4"; "inv#5"; "inv-none" ];
  let snapshot_of dir =
    List.filter (fun (f, _) -> String.starts_with ~prefix:"snap-" f) (dir_files dir)
  in
  Alcotest.(check bool) "users and reply cache: both recoveries write the same snapshot" true
    (snapshot_of dir = snapshot_of snap_dir && snapshot_of dir <> []);
  List.iter
    (fun (name, svc) ->
      let settled = Net.Service.searches_settled svc in
      Alcotest.(check string) (name ^ ": the pinned search replays") pinned_reply
        (Wire.encode_response (Net.Service.handle svc pinned));
      Alcotest.(check string) (name ^ ": the dispute replays its verdict") verdict
        (Wire.encode_response (Net.Service.handle svc dispute));
      Alcotest.(check int) (name ^ ": nothing settled again") settled
        (Net.Service.searches_settled svc))
    [ ("WAL replay", replayed); ("snapshot", restored) ]

(* [rs_snapshot] says whether the database came from a snapshot. The
   first recovery of an empty dir checkpoints an empty one, which does
   not count: a Build still only in the WAL restarts without a
   snapshot, and only after a recovery has checkpointed it does the
   next restart read it from one. *)
let test_recovery_reports_a_built_snapshot () =
  let dir = fresh_state_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cfg = { Store.dir; fsync = false; snapshot_bytes = max_int } in
  let restart () =
    let svc, stats = recover_exn cfg in
    close_service svc;
    (stats.Net.Service.rs_snapshot, stats.Net.Service.rs_replayed)
  in
  let svc, stats = recover_exn cfg in
  Alcotest.(check bool) "an empty dir: no snapshot" false stats.Net.Service.rs_snapshot;
  (match
     Net.Service.handle svc (Net.Client.seeded_build ~width ~payment:1000 ~seed:"rs-snap" db)
   with
   | Wire.Accepted _ -> ()
   | _ -> Alcotest.fail "build refused");
  close_service svc;
  Alcotest.(check (pair bool int)) "a WAL-only restart replays the Build" (false, 1) (restart ());
  Alcotest.(check (pair bool int)) "the next restart reads the checkpointed Build" (true, 0)
    (restart ())

(* --- batched optimistic settlement over the wire ------------------------ *)

(* A served batched system. Its contract must hold the service's own
   dispute window and shard identity, which its Build deployed it with. *)
let settle_system seed ~settle ~shard =
  let small_db = List.filteri (fun i _ -> i < 25) db in
  let svc = seeded_service ~settle ~shard ~seed small_db in
  (match Net.Service.station svc with
   | None -> Alcotest.fail "no station"
   | Some st ->
     let ledger = Station.ledger st and contract = Station.contract st in
     Alcotest.(check (option int)) "the contract holds the configured dispute window"
       (Some settle.Settle_batch.sb_dispute_blocks)
       (Slicer_contract.stored_dispute_window ledger ~contract);
     Alcotest.(check (option (pair int int))) "the contract holds the service's shard"
       (Some shard) (Slicer_contract.stored_shard ledger ~contract));
  let srv = Net.Server.start (Net.Service.handle svc) in
  (small_db, svc, srv)

let settle_client name srv =
  match Net.Client.connect ~name (Net.Server.endpoint srv) with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" (Net.Client.error_to_string e)

let rid_exn c = match Net.Client.last_request_id c with
  | Some id -> id
  | None -> Alcotest.fail "client has no last request id"

let test_batched_settlement_over_the_wire () =
  (* Size-2 batches, a 3-block dispute window, an effectively-off
     wall clock: the second search commits its batch inline, so its
     own reply already carries the Merkle coordinates the client
     verifies membership against. *)
  let settle =
    { Settle_batch.sb_size = 2; sb_window_ms = 1e9; sb_deposit = 100_000;
      sb_dispute_blocks = 3 }
  in
  let small_db, svc, srv = settle_system "net-settle" ~settle ~shard:(0, 1) in
  Fun.protect ~finally:(fun () -> Net.Server.stop srv) @@ fun () ->
  let st = match Net.Service.station svc with
    | Some st -> st | None -> Alcotest.fail "no station"
  in
  let bal addr = Vm.balance (Ledger.state (Station.ledger st)) addr in
  let c = settle_client "settle-e2e" srv in
  Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
  let payment = Net.Client.payment c in
  let query = q 30 Slicer_types.Lt in
  let expected = Slicer_types.reference_search small_db query in
  (* Search 1: pending — verified on the leaf commitment alone. *)
  (match Net.Client.search c query with
   | Ok out ->
     Alcotest.(check bool) "pending search verified" true out.Protocol.so_verified;
     check_ids "pending ids" expected out.Protocol.so_ids
   | Error e -> Alcotest.failf "search 1: %s" (Net.Client.error_to_string e));
  let rid1 = rid_exn c in
  (match Net.Client.receipt c ~request_id:rid1 with
   | Ok (Wire.Rcp_pending _) -> ()
   | Ok _ -> Alcotest.fail "expected a pending receipt before the flush"
   | Error e -> Alcotest.failf "receipt 1: %s" (Net.Client.error_to_string e));
  (* Search 2 fills the batch: the inline commit means this reply
     carries root + inclusion proof, and so_verified now attests
     Merkle membership, not an on-chain payment. *)
  (match Net.Client.search c query with
   | Ok out -> Alcotest.(check bool) "committed search verified" true out.Protocol.so_verified
   | Error e -> Alcotest.failf "search 2: %s" (Net.Client.error_to_string e));
  let rid2 = rid_exn c in
  (match Net.Client.receipt c ~request_id:rid2 with
   | Ok (Wire.Rcp_committed si) ->
     (match (si.Wire.si_root, si.Wire.si_proof) with
      | Some root, Some proof ->
        Alcotest.(check int) "root is a digest" 32 (String.length root);
        Alcotest.(check int) "proof binds index 1" 1 proof.Merkle.index
      | _ -> Alcotest.fail "committed receipt without root/proof")
   | Ok _ -> Alcotest.fail "expected a committed receipt after the flush"
   | Error e -> Alcotest.failf "receipt 2: %s" (Net.Client.error_to_string e));
  let cloud_mid = bal (Station.cloud_addr st) in
  (* The window is measured in blocks and blocks only seal on
     transactions: keep searching (each escrow seals one) and forcing
     the timer until the first batch drops out of its dispute window
     and settles wholesale, paying both escrows at once. *)
  let rec drive tries =
    if tries = 0 then Alcotest.fail "first batch never finalized"
    else begin
      (match Net.Client.search c query with
       | Ok _ -> () | Error e -> Alcotest.failf "drive search: %s" (Net.Client.error_to_string e));
      Net.Service.settle_flush svc;
      match Net.Client.receipt c ~request_id:rid1 with
      | Ok (Wire.Rcp_final _) -> ()
      | Ok _ -> drive (tries - 1)
      | Error e -> Alcotest.failf "receipt final: %s" (Net.Client.error_to_string e)
    end
  in
  drive 8;
  Alcotest.(check bool) "finalize paid the batched escrows" true
    (bal (Station.cloud_addr st) >= cloud_mid + (2 * payment))

let test_batched_dispute_slashes_over_the_wire () =
  (* A tampering cloud commits a provably-bad leaf; the client's kept
     claims bytes are exactly the dispute evidence. The slash pays the
     whole deposit to the disputer and refunds the whole batch. *)
  let deposit = 60_000 in
  let settle =
    { Settle_batch.sb_size = 2; sb_window_ms = 1e9; sb_deposit = deposit;
      sb_dispute_blocks = 50 }
  in
  let _, svc, srv = settle_system "net-settle-bad" ~settle ~shard:(1, 2) in
  Fun.protect ~finally:(fun () -> Net.Server.stop srv) @@ fun () ->
  let st = match Net.Service.station svc with
    | Some st -> st | None -> Alcotest.fail "no station"
  in
  let bal addr = Vm.balance (Ledger.state (Station.ledger st)) addr in
  let c = settle_client "settle-victim" srv in
  Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
  let payment = Net.Client.payment c in
  let query = q 30 Slicer_types.Lt in
  (match Net.Client.search c query with
   | Ok out -> Alcotest.(check bool) "honest leaf verified" true out.Protocol.so_verified
   | Error e -> Alcotest.failf "search 1: %s" (Net.Client.error_to_string e));
  Cloud.set_behavior (Station.cloud st) Cloud.Tamper_result;
  Fun.protect ~finally:(fun () -> Cloud.set_behavior (Station.cloud st) Cloud.Honest)
  @@ fun () ->
  (match Net.Client.search c query with
   | Ok out ->
     Alcotest.(check bool) "tampered results fail the local check" false
       out.Protocol.so_verified
   | Error e -> Alcotest.failf "search 2: %s" (Net.Client.error_to_string e));
  let rid2 = rid_exn c in
  let user_before = bal (Net.Client.user_address c) in
  (* Record every trace (a 0 ms slow threshold) for the dispute alone:
     its on-chain Algorithm-5 run must root a trace of its own, not be
     filed under the search label. *)
  ignore (Trace.drain () : Trace.span list);
  Trace.set_slow_ms (Some 0.);
  let verdict =
    Fun.protect ~finally:(fun () -> Trace.set_slow_ms None) (fun () ->
        Net.Client.dispute c ~request_id:rid2)
  in
  let roots =
    List.concat_map (fun tr -> tr.Trace.Tree.t_roots) (Trace.Tree.assemble (Trace.drain ()))
  in
  let name n = n.Trace.Tree.n_span.Trace.sp_name in
  Alcotest.(check (list string)) "the dispute's root span" [ "service.dispute" ]
    (List.map name roots);
  Alcotest.(check bool) "its wait for the service lock nests under it" true
    (List.exists
       (fun root -> List.exists (fun n -> name n = "service.lock_wait") root.Trace.Tree.n_children)
       roots);
  (match verdict with
   | Ok (slashed, receipt) ->
     Alcotest.(check bool) "dispute slashed the cloud" true slashed;
     (match receipt.Vm.r_output with
      | Ok [ "slashed" ] -> ()
      | _ -> Alcotest.fail "unexpected dispute receipt")
   | Error e -> Alcotest.failf "dispute: %s" (Net.Client.error_to_string e));
  (* Bounty (the whole deposit) + both refunded escrows land on the
     disputing client's chain address. *)
  Alcotest.(check int) "bounty and refunds" (user_before + deposit + (2 * payment))
    (bal (Net.Client.user_address c));
  (match Net.Client.receipt c ~request_id:rid2 with
   | Ok (Wire.Rcp_refunded _) -> ()
   | Ok _ -> Alcotest.fail "slashed batch should read refunded"
   | Error e -> Alcotest.failf "receipt: %s" (Net.Client.error_to_string e))

(* A Dispute re-sent after its reply was lost returns the verdict the
   first one got, and moves no balance: the slash and the refund
   happened once. *)
let test_resent_dispute_returns_its_verdict () =
  let settle =
    { Settle_batch.sb_size = 2; sb_window_ms = 1e9; sb_deposit = 60_000;
      sb_dispute_blocks = 50 }
  in
  let svc = seeded_service ~settle ~seed:"net-resend" (List.filteri (fun i _ -> i < 25) db) in
  let st = station_of svc in
  let client = "resend-user" in
  let rng = Drbg.create ~seed:client in
  let user = hello_user svc client in
  let search request_id =
    found svc
      (Wire.Search
         { client; request_id; batched = false;
           tokens = User.gen_tokens ~rng user (q 30 Slicer_types.Lt); trace = None })
  in
  ignore (search "resend#1");
  Cloud.set_behavior (Station.cloud st) Cloud.Tamper_result;
  let bad =
    Fun.protect ~finally:(fun () -> Cloud.set_behavior (Station.cloud st) Cloud.Honest)
      (fun () -> search "resend#2")
  in
  let dispute =
    Wire.Dispute
      { client; request_id = "resend#2"; shard = 0;
        claims_blob = Slicer_contract.encode_claims bad.Wire.sr_claims;
        batch_witness = bad.Wire.sr_batch_witness }
  in
  let first = Net.Service.handle svc dispute in
  (match first with
   | Wire.Disputed { dp_slashed = true; _ } -> ()
   | _ -> Alcotest.fail "the first dispute should slash the cloud");
  let accounts () = Vm.accounts (Ledger.state (Station.ledger st)) in
  let before = accounts () in
  let again = Net.Service.handle svc dispute in
  Alcotest.(check string) "the re-sent dispute returns the same verdict"
    (Wire.encode_response first) (Wire.encode_response again);
  Alcotest.(check bool) "and moves no balance" true (accounts () = before)

let settle_flags = [ "--settle-batch"; "2"; "--settle-window-ms"; "100000";
                     "--settle-dispute-window"; "1" ]

let test_batched_sigkill_between_commit_and_finalize () =
  (* The acceptance crash: SIGKILL lands after the batch commitment is
     on chain but before its dispute window lets it finalize. The
     restarted server replays the WAL (escrows, adds, the inline
     commit), and its settlement timer finalizes the recovered batch —
     exactly once, since there is exactly one recovered chain. *)
  match server_exe () with
  | None -> Alcotest.skip ()
  | Some exe ->
    let dir = fresh_state_dir () in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let pid, out_fd, port = spawn_server ~extra:settle_flags ~records:0 ~exe ~dir () in
    let killed = ref false in
    Fun.protect
      ~finally:(fun () ->
        if not !killed then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        end;
        try Unix.close out_fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    let ep = Net.Server.Tcp ("127.0.0.1", port) in
    let rng, keys, acc_params, owner, records, shipment = durable_owner "skb-owner" in
    ignore rng;
    (match Net.Client.connect ~name:"skb-owner" ~provision:false ep with
     | Error e -> Alcotest.failf "owner connect: %s" (Net.Client.error_to_string e)
     | Ok oc ->
       (match
          Net.Client.build oc ~width ~payment:500 ~acc:acc_params
            ~tdp_public:keys.Keys.tdp_public ~user_keys:(Keys.for_user keys) ~shipment
            ~trapdoor:(Owner.export_trapdoor_state owner)
        with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "build: %s" (Net.Client.error_to_string e));
       Net.Client.close oc);
    let query = q 30 Slicer_types.Lt in
    let rid1, rid2 =
      match Net.Client.connect ~name:"skb-user" ep with
      | Error e -> Alcotest.failf "user connect: %s" (Net.Client.error_to_string e)
      | Ok c ->
        Fun.protect ~finally:(fun () -> try Net.Client.close c with _ -> ())
        @@ fun () ->
        (match Net.Client.search c query with
         | Ok out -> Alcotest.(check bool) "search 1 verified" true out.Protocol.so_verified
         | Error e -> Alcotest.failf "search 1: %s" (Net.Client.error_to_string e));
        let rid1 = rid_exn c in
        (match Net.Client.search c query with
         | Ok out -> Alcotest.(check bool) "search 2 verified" true out.Protocol.so_verified
         | Error e -> Alcotest.failf "search 2: %s" (Net.Client.error_to_string e));
        let rid2 = rid_exn c in
        (* The size-2 batch committed inline with search 2; its window
           (1 block) has not passed within the same tick cadence
           guarantee, so kill NOW — commit on chain, finality not. *)
        (rid1, rid2)
    in
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    killed := true;
    (try Unix.close out_fd with Unix.Unix_error _ -> ());
    (* Restart over the same state directory, same settlement flags. *)
    let pid2, out_fd2, port2 = spawn_server ~extra:settle_flags ~records:0 ~exe ~dir () in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid2 Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] pid2) with Unix.Unix_error _ -> ());
        try Unix.close out_fd2 with Unix.Unix_error _ -> ())
    @@ fun () ->
    let ep2 = Net.Server.Tcp ("127.0.0.1", port2) in
    (match Net.Client.connect ~name:"skb-user" ep2 with
     | Error e -> Alcotest.failf "reconnect: %s" (Net.Client.error_to_string e)
     | Ok c ->
       Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
       match Net.Client.connect ~name:"skb-after" ep2 with
       | Error e -> Alcotest.failf "fresh connect: %s" (Net.Client.error_to_string e)
       | Ok c2 ->
         Fun.protect ~finally:(fun () -> Net.Client.close c2) @@ fun () ->
         (* The recovered service still settles fresh traffic... *)
         (match Net.Client.search c2 query with
          | Ok out ->
            Alcotest.(check bool) "post-recovery batched search verified" true
              out.Protocol.so_verified;
            check_ids "post-recovery ids" (Slicer_types.reference_search records query)
              out.Protocol.so_ids
          | Error e -> Alcotest.failf "post-recovery search: %s" (Net.Client.error_to_string e));
         (* ...and the recovered pre-kill batch finalizes under the
            server's own timer. The window is counted in blocks, so the
            fresh searches both prove liveness and seal the blocks that
            let the old batch out of its dispute window. *)
         let rec await rid tries =
           match Net.Client.receipt c ~request_id:rid with
           | Ok (Wire.Rcp_final _) -> ()
           | Ok _ when tries > 0 ->
             (match Net.Client.search c2 query with Ok _ | Error _ -> ());
             Thread.delay 0.3;
             await rid (tries - 1)
           | Ok _ -> Alcotest.failf "receipt %s never finalized after recovery" rid
           | Error e -> Alcotest.failf "receipt %s: %s" rid (Net.Client.error_to_string e)
         in
         await rid1 30;
         await rid2 5)

let () =
  Alcotest.run "net"
    [ ( "frame",
        [ Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "stream decoding" `Quick test_frame_stream;
          Alcotest.test_case "limits" `Quick test_frame_limits;
          Alcotest.test_case "length lies" `Quick test_frame_length_lies;
          Alcotest.test_case "a Build-sized frame over a socketpair" `Quick
            test_frame_read_large ]
        @ frame_reference_props @ frame_corruption_props );
      ( "wire",
        [ Alcotest.test_case "request roundtrips" `Quick test_request_roundtrips;
          Alcotest.test_case "response roundtrips" `Quick test_response_roundtrips;
          Alcotest.test_case "one-pass frames equal the framed payload" `Quick
            test_frames_from_pieces;
          Alcotest.test_case "a live Stats frame equals its Stats_reply's" `Quick
            test_live_stats_frame;
          Alcotest.test_case "a degenerate modulus does not decode" `Quick
            test_degenerate_modulus_refused;
          Alcotest.test_case "persist message codecs" `Quick test_persist_message_codecs ]
        @ codec_corruption_props );
      ( "backoff",
        Alcotest.test_case "schedule" `Quick test_backoff_schedule :: backoff_props );
      ( "service",
        [ Alcotest.test_case "idempotent settlement" `Quick test_idempotent_settlement;
          Alcotest.test_case "replay confined to the settling client" `Quick
            test_replay_confined_to_client;
          Alcotest.test_case "idempotent build and insert" `Quick
            test_idempotent_build_and_insert;
          Alcotest.test_case "stats counters advance across a retry" `Quick
            test_stats_counters_advance;
          Alcotest.test_case "Ping, Stats and Traces take no service lock" `Quick
            test_admin_requests_take_no_lock;
          Alcotest.test_case "a Stats scrape allocates at most 1.5x its frame" `Quick
            test_stats_scrape_allocation;
          Alcotest.test_case "structured refusals" `Quick test_service_refusals;
          Alcotest.test_case "a token past the generation is refused unescrowed" `Quick
            test_token_past_generation_refused ] );
      ( "loopback",
        [ Alcotest.test_case "concurrent clients match Protocol.search" `Quick
            test_concurrent_clients_match_protocol;
          Alcotest.test_case "a reply for another query is not verified" `Quick
            test_reply_for_another_query;
          Alcotest.test_case "a reply missing a claim is not verified" `Quick
            test_reply_missing_a_claim;
          Alcotest.test_case "a routed reply with an uncovered claim is not verified" `Quick
            test_routed_reply_with_an_uncovered_claim;
          Alcotest.test_case "a tokenless query sends nothing" `Quick
            test_tokenless_query_sends_nothing;
          Alcotest.test_case "tampering server refused payment" `Quick
            test_tampering_server_refused_payment;
          Alcotest.test_case "malformed frames get structured errors" `Quick
            test_malformed_frames_get_structured_errors;
          Alcotest.test_case "older revisions refused at hello and shipment" `Quick
            test_older_revisions_refused;
          Alcotest.test_case "busy refusal exhausts retries" `Quick test_busy_refusal_exhausts;
          Alcotest.test_case "kill and restart mid-load" `Quick test_kill_restart_mid_load;
          Alcotest.test_case "build and insert over the wire" `Quick
            test_build_and_insert_over_the_wire;
          Alcotest.test_case "read timeout kicks idlers" `Quick test_read_timeout_kicks_idlers;
          Alcotest.test_case "stats over the wire" `Quick test_stats_over_the_wire;
          Alcotest.test_case "memory gauges after a build" `Quick test_stats_memory_gauges;
          Alcotest.test_case "an oversize request is refused unsent" `Quick
            test_oversize_request_refused ] );
      ( "event loop",
        [ Alcotest.test_case "decoder: byte-at-a-time" `Quick test_decoder_byte_at_a_time;
          Alcotest.test_case "decoder: zero-copy parsing" `Quick test_decoder_zero_copy;
          Alcotest.test_case "decoder: a frame's arena stops at its length" `Quick
            test_decoder_arena_capped_at_frame;
          Alcotest.test_case "decoder: rejects corruption" `Quick
            test_decoder_rejects_corruption;
          Alcotest.test_case "pipelined requests answered in order" `Quick
            test_pipelined_requests_in_order;
          Alcotest.test_case "slowloris swept without stalling others" `Quick
            test_slowloris_swept_without_stalling;
          Alcotest.test_case "one request per connection in flight" `Quick
            test_one_request_per_connection;
          Alcotest.test_case "two frames in one write answer in order" `Quick
            test_two_frames_one_write;
          Alcotest.test_case "a half-closed burst is answered, then EOF" `Quick
            test_half_closed_burst_answered;
          Alcotest.test_case "backpressure throttles a non-reader" `Quick
            test_backpressure_throttles_non_reader;
          Alcotest.test_case "pre-handshake garbage dropped silently" `Quick
            test_pre_handshake_garbage_dropped;
          Alcotest.test_case "swarm holds hundreds of sockets" `Quick
            test_swarm_holds_connections;
          Alcotest.test_case "a client past FD_SETSIZE pings and searches" `Quick
            test_client_past_fd_setsize ] );
      ( "witnesses",
        [ Alcotest.test_case "a Build's witnesses serve at once" `Quick
            test_build_witnesses_serve_at_once;
          Alcotest.test_case "a corrupted witness is refused on chain" `Quick
            test_corrupted_witness_refused_on_chain;
          Alcotest.test_case "a misfit witness list is refused" `Quick
            test_misfit_witnesses_refused;
          Alcotest.test_case "a clashing Insert leaves the tree" `Quick
            test_clashing_insert_leaves_the_tree;
          Alcotest.test_case "a clashing Insert's retry is accepted" `Quick
            test_clashing_insert_retry_accepted;
          Alcotest.test_case "the factors never leave the owner" `Quick
            test_factors_never_leave_the_owner;
          Alcotest.test_case "a WAL-only Build recovers warm" `Quick
            test_wal_only_build_recovers_warm;
          Alcotest.test_case "a WAL-only Insert is warmed after recovery" `Quick
            test_wal_insert_recovers_warm ] );
      ( "durability",
        [ Alcotest.test_case "state survives a restart" `Quick test_service_survives_restart;
          Alcotest.test_case "witness index survives a restart" `Quick
            test_witness_index_survives_restart;
          Alcotest.test_case "old snapshot layouts are refused" `Quick
            test_old_snapshot_layouts_refused;
          Alcotest.test_case "WAL and snapshot bytes golden" `Quick
            test_wal_and_snapshot_golden;
          Alcotest.test_case "SIGKILL mid-load, recover, serve again" `Quick
            test_sigkill_mid_load_recovers;
          Alcotest.test_case "second server on a live state dir is refused" `Quick
            test_second_server_refused_on_live_state_dir;
          Alcotest.test_case "a shard refuses another shard's state dir" `Quick
            test_shard_identity_checked_on_recovery;
          Alcotest.test_case "a self-seeded server recovers its own Build" `Quick
            test_self_seeded_server_recovers;
          Alcotest.test_case "a Build record without its identity is refused" `Quick
            test_build_record_without_identity_refused;
          Alcotest.test_case "a snapshot restart resumes the chain at its head" `Quick
            test_snapshot_restart_resumes_the_chain;
          Alcotest.test_case "a restart under another settlement is refused" `Quick
            test_restart_under_another_settlement_refused;
          Alcotest.test_case "WAL replay and snapshot restore agree" `Quick
            test_wal_replay_and_snapshot_agree;
          Alcotest.test_case "a restart reports whether a snapshot held the database" `Quick
            test_recovery_reports_a_built_snapshot ] );
      ( "settlement",
        [ Alcotest.test_case "batched settlement over the wire" `Quick
            test_batched_settlement_over_the_wire;
          Alcotest.test_case "dispute slashes a tampering cloud" `Quick
            test_batched_dispute_slashes_over_the_wire;
          Alcotest.test_case "a re-sent dispute returns its verdict" `Quick
            test_resent_dispute_returns_its_verdict;
          Alcotest.test_case "SIGKILL between commit and finalize" `Quick
            test_batched_sigkill_between_commit_and_finalize ] ) ]
