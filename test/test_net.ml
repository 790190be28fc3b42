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

(* The served system and its in-process mirror: [Protocol.setup] is
   deterministic per seed, so these are twins — same keys, same index,
   same chain genesis. The mirror answers every query the way the
   server must. *)
let service_system =
  lazy
    (let s = Protocol.setup ~width ~seed:"net-twin" db in
     Cloud.precompute_witnesses (Protocol.cloud s);
     s)

let mirror_system =
  lazy
    (let s = Protocol.setup ~width ~seed:"net-twin" db in
     Cloud.precompute_witnesses (Protocol.cloud s);
     s)

let service = lazy (Net.Service.of_protocol (Lazy.force service_system))

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

let codec_corruption_props =
  (* Every codec's encoding rides inside a frame; flipping any bit of
     that frame — or truncating it, or lying about its length — must
     yield a decode error, never an exception and never a parse. *)
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
        Result.is_error (Net.Frame.decode (flip_bit frame bit)));
    prop "framed messages: truncation rejected" ~count:150
      QCheck2.Gen.(pair (int_range 0 6) nat)
      (fun (which, cut) ->
        let frame = List.nth (Lazy.force framed) which in
        Result.is_error (Net.Frame.decode (String.sub frame 0 (cut mod String.length frame))));
    prop "framed messages: length lies rejected" ~count:150
      QCheck2.Gen.(pair (int_range 0 6) (int_range 6 9))
      (fun (which, len_byte) ->
        let frame = Bytes.of_string (List.nth (Lazy.force framed) which) in
        Bytes.set frame len_byte
          (Char.chr (Char.code (Bytes.get frame len_byte) lxor 0xff));
        Result.is_error (Net.Frame.decode (Bytes.to_string frame)));
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
        ignore (Persist.claims_of_bytes subject);
        ignore (Persist.receipt_of_bytes subject);
        ignore (Persist.query_of_bytes subject);
        true) ]

let test_persist_message_codecs () =
  (* The satellite codecs on their own: query, tokens, claims, receipt. *)
  List.iter
    (fun query ->
      match Persist.query_of_bytes (Persist.query_to_bytes query) with
      | Some query' -> Alcotest.(check bool) "query" true (query = query')
      | None -> Alcotest.fail "query did not round-trip")
    [ q 0 Slicer_types.Eq; q 63 Slicer_types.Gt; q ~attr:"dose" 17 Slicer_types.Lt ];
  let tokens = Lazy.force sample_tokens in
  (match Persist.tokens_of_bytes (Persist.tokens_to_bytes tokens) with
   | Some tokens' ->
     Alcotest.(check (list string)) "tokens" (token_blobs tokens) (token_blobs tokens')
   | None -> Alcotest.fail "tokens did not round-trip");
  let m = Lazy.force mirror_system in
  let claims, _ = Cloud.search (Protocol.cloud m) tokens in
  (match Persist.claims_of_bytes (Persist.claims_to_bytes claims) with
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
   | _ -> Alcotest.fail "search without Hello should be Unknown_user")

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

(* A peer from before revision 5 fails at the handshake with a
   structured refusal, and its Build/Insert bytes are refused as
   malformed rather than decoded. *)
let test_older_revisions_refused () =
  ignore (Lazy.force server);
  List.iter
    (fun proto ->
      match Net.Service.handle (Lazy.force service) (Wire.Hello { client = "old-peer"; proto }) with
      | Wire.Refused { code = Wire.Version_mismatch; _ } -> ()
      | _ -> Alcotest.failf "revision %d hello not refused as a version mismatch" proto)
    [ 1; Wire.proto_version - 1; Wire.proto_version + 1 ];
  let old_form req =
    match req with
    | Wire.Build { shipment; _ } | Wire.Insert { shipment; _ } ->
      let current = Persist.shipment_to_bytes shipment in
      (match Bytesutil.split (Wire.encode_request req) with
       | Some pieces ->
         Bytesutil.concat
           (List.map
              (fun p -> if String.equal p current then revision4_shipment_bytes shipment else p)
              pieces)
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
       | _ -> Alcotest.fail "revision-4 hello over the wire not refused");
      List.iter
        (fun req ->
          let bytes = old_form req in
          Alcotest.(check bool) "old-form payload does not decode" true
            (Wire.decode_request bytes = None);
          match exchange bytes with
          | Some (Wire.Refused { code = Wire.Bad_request; _ }) -> ()
          | _ -> Alcotest.fail "old-form shipment not refused as malformed")
        shipment_requests)

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
  let system = Protocol.setup ~width ~seed:"net-restart" small_db in
  Cloud.precompute_witnesses (Protocol.cloud system);
  let svc = Net.Service.of_protocol system in
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
        got := (v.Net.Frame.Decoder.v_tag, Net.Frame.Decoder.payload_string d v) :: !got
      | Error e -> Alcotest.failf "decoder: %s" (Net.Frame.error_to_string e))
    stream;
  Alcotest.(check (list (pair int string))) "all frames, in order" frames (List.rev !got);
  Alcotest.(check int) "frames counted" (List.length frames) (Net.Frame.Decoder.frames d);
  Alcotest.(check int) "nothing left buffered" 0 (Net.Frame.Decoder.buffered d)

let test_decoder_zero_copy () =
  (* One big chunk in, several frames out: the only payload copies are
     the counted [payload_string] extractions — parsing itself copies
     nothing. *)
  let payloads = List.init 5 (fun i -> String.make (100 * (i + 1)) (Char.chr (65 + i))) in
  let stream = String.concat "" (List.map (Net.Frame.encode ~tag:7) payloads) in
  let d = Net.Frame.Decoder.create () in
  Net.Frame.Decoder.feed d stream;
  let rec drain acc =
    match Net.Frame.Decoder.next d with
    | Ok None -> List.rev acc
    | Ok (Some v) -> drain (v :: acc)
    | Error e -> Alcotest.failf "decoder: %s" (Net.Frame.error_to_string e)
  in
  let views = drain [] in
  Alcotest.(check int) "parsed all frames" (List.length payloads) (List.length views);
  Alcotest.(check int) "parsing made zero payload copies" 0 (Net.Frame.Decoder.extractions d);
  (* Extract only the middle one: exactly one copy happens. *)
  let v = List.nth views 2 in
  Alcotest.(check string) "extracted payload" (List.nth payloads 2)
    (Net.Frame.Decoder.payload_string d v);
  Alcotest.(check int) "one counted extraction" 1 (Net.Frame.Decoder.extractions d)

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
  (* Many requests in one burst, answered strictly in order even though
     the worker pool may complete them out of order — with a malformed
     payload mid-stream answered (with a refusal) in its slot. *)
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
     the kernel can absorb almost nothing and the reply bytes must
     queue in the server's userspace — which is exactly what the
     backpressure cap bounds. *)
  let listener = Net.Server.bind_endpoint (Net.Server.Tcp ("127.0.0.1", 0)) in
  Unix.setsockopt_int listener Unix.SO_SNDBUF 4096;
  let port = Net.Server.bound_port listener in
  let config =
    { Net.Server.default_config with
      endpoint = Net.Server.Tcp ("127.0.0.1", port);
      max_queued_write = 2048 }
  in
  let srv = Net.Server.start ~config ~listener (Net.Service.handle (Lazy.force service)) in
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
          let n = 40 in
          let burst =
            String.concat ""
              (List.init n (fun _ ->
                   Net.Frame.encode ~tag:Wire.request_tag (Wire.encode_request Wire.Stats)))
          in
          write_raw fd burst;
          (* Give the server time to queue far more reply bytes than
             [max_queued_write] while we refuse to read. *)
          Unix.sleepf 0.8;
          let throttles_after = Obs.counter_value "slicer_net_backpressure_throttles_total" in
          Alcotest.(check bool) "write backpressure engaged" true
            (throttles_after > throttles_before);
          (* Now drain: every reply arrives, in order, on the same
             connection. *)
          List.iter
            (fun i ->
              match Net.Frame.read ~timeout:20. fd with
              | Error e -> Alcotest.failf "reply %d: %s" i (Net.Frame.error_to_string e)
              | Ok { Net.Frame.payload; _ } ->
                (match Wire.decode_response payload with
                 | Some (Wire.Stats_reply _) -> ()
                 | _ -> Alcotest.failf "reply %d is not a stats reply" i))
            (List.init n (fun i -> i));
          (* The throttled connection recovered fully. *)
          Net.Frame.write fd ~tag:Wire.request_tag (Wire.encode_request Wire.Ping);
          match Net.Frame.read ~timeout:5. fd with
          | Ok { Net.Frame.payload; _ } ->
            (match Wire.decode_response payload with
             | Some Wire.Pong -> ()
             | _ -> Alcotest.fail "expected Pong after draining")
          | Error e -> Alcotest.failf "no pong after draining: %s" (Net.Frame.error_to_string e)))

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
  (* A few hundred keep-alive connections from one process: all confirm,
     the server's open-connection gauge sees them, and closing the swarm
     releases them. *)
  let srv = Net.Server.start (Net.Service.handle (Lazy.force service)) in
  Fun.protect
    ~finally:(fun () -> Net.Server.stop srv)
    (fun () ->
      let n = 300 in
      let sw = Net.Client.Swarm.open_ ~timeout:60. ~n (Net.Server.endpoint srv) in
      Fun.protect
        ~finally:(fun () -> Net.Client.Swarm.close sw)
        (fun () ->
          Alcotest.(check int) "every connection confirmed" n (Net.Client.Swarm.live sw);
          Alcotest.(check bool) "server sees the swarm" true
            (Net.Server.open_connections srv >= n);
          (* Keep-alives keep flowing on demand. *)
          Net.Client.Swarm.tick ~timeout_ms:200 sw;
          Alcotest.(check int) "still live after a tick" n (Net.Client.Swarm.live sw));
      (* After close, the loop reaps every socket promptly. *)
      let deadline = Unix.gettimeofday () +. 5. in
      let rec wait () =
        if Net.Server.open_connections srv = 0 then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.failf "server still holds %d sockets after swarm close"
            (Net.Server.open_connections srv)
        else begin
          Unix.sleepf 0.05;
          wait ()
        end
      in
      wait ())

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
   contract, so any identity opens it. The identity lives in the
   snapshot's contract storage, so the Build is checkpointed (a 1-byte
   snapshot cadence); a Build still only in the WAL is replayed under
   the identity the restarting server claims. *)
let test_shard_identity_checked_on_recovery () =
  let dir = fresh_state_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cfg = { Store.dir; fsync = false; snapshot_bytes = 1 } in
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
        Alcotest.failf "shard (0, 2)'s state dir recovered as (%d, %d)" i n
      | Error e ->
        Alcotest.(check string) "the refusal names both identities"
          (Printf.sprintf
             "recovered shard mismatch: the state dir holds shard 0 of 2, this server is shard %d of %d"
             i n)
          e)
    [ (1, 2); (0, 1) ];
  match Net.Service.recover ~shard:(0, 2) cfg with
  | Error e -> Alcotest.failf "recovering as the same shard: %s" e
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
  (* Restart 1: WAL replay reconstructs (and re-warms) the index; the
     re-anchoring checkpoint then snapshots the warm state. *)
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
  (* One snapshot layout decodes. The three older ones, rebuilt from a
     real v4 snapshot (v3 had the same pieces under its own magic, v2 no
     settle piece, v1 no witness piece either), are refused as a codec
     mismatch, while the v4 original written the same way recovers. *)
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
  let v4 =
    let store, rc = Store.open_ cfg in
    Store.close store;
    match rc.Store.rc_snapshot with
    | Some (_, payload) -> payload
    | None -> Alcotest.fail "no snapshot after recovery"
  in
  let pieces =
    match Bytesutil.split v4 with Some p -> p | None -> Alcotest.fail "v4 snapshot does not split"
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
  in_fresh_dir v4 recover;
  List.iter
    (fun (magic, payload) ->
      in_fresh_dir payload @@ fun old_cfg ->
      match Net.Service.recover old_cfg with
      | Error e ->
        Alcotest.(check string) (magic ^ " refused") "snapshot failed to decode (codec mismatch)" e
      | Ok (svc, _) ->
        Option.iter Store.close (Net.Service.store svc);
        Alcotest.failf "%s snapshot was decoded" magic)
    [ ("slicer-service-built-v3",
       Bytesutil.concat (("slicer-service-built-v3" :: state) @ [ witness; settle ]));
      ("slicer-service-built-v2",
       Bytesutil.concat (("slicer-service-built-v2" :: state) @ [ witness ]));
      ("slicer-service-built-v1", Bytesutil.concat ("slicer-service-built-v1" :: state)) ]

(* The WAL's bytes after a seeded durable sequence — Build, Register,
   a Search into an open settle batch, Insert, a forced flush — and the
   snapshot that recovery then re-anchors on. The WAL was hashed on the
   commit before records were streamed from the request's encoding; the
   snapshot was re-hashed when the contract's cells became one word each
   (magic slicer-service-built-v4). Neither may move one byte. *)
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
  Alcotest.(check int) "wal.log size" 21437 (String.length wal);
  Alcotest.(check string) "wal.log sha-256"
    "ffec9562dc5798432e507d3d9d112d0b513dc2879c6328ab8079898aa73b8c3e" (Sha256.digest_hex wal);
  match Net.Service.recover ~settle cfg with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok (svc, stats) ->
    Option.iter Store.close (Net.Service.store svc);
    Alcotest.(check int) "every record replayed" 5 stats.Net.Service.rs_replayed;
    (* Recovery re-anchors on a snapshot at the last record's seq. *)
    let snap = read "snap-5.bin" in
    Alcotest.(check int) "snapshot size" 15660 (String.length snap);
    Alcotest.(check string) "snapshot sha-256"
      "20b2e8949a8e4d1bcb75777f243f74bdba17f094a88196faaea84ed2e9cffdcd" (Sha256.digest_hex snap)

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
    let pid, out_fd, port = spawn_server ~exe ~dir () in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
        try Unix.close out_fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    let err_r, err_w = Unix.pipe () in
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let argv =
      [| exe; "--records"; "0"; "--port"; "0"; "--state-dir"; dir; "--log-level"; "quiet";
         "--metrics-interval"; "0" |]
    in
    let pid2 = Unix.create_process exe argv null null err_w in
    Unix.close err_w;
    Unix.close null;
    let deadline = Unix.gettimeofday () +. 30. in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] pid2 with
      | 0, _ when Unix.gettimeofday () < deadline ->
        Thread.delay 0.05;
        reap ()
      | 0, _ ->
        Unix.kill pid2 Sys.sigkill;
        ignore (Unix.waitpid [] pid2);
        Alcotest.fail "a second server on a live state dir kept running"
      | _, status -> status
    in
    let status = reap () in
    let ic = Unix.in_channel_of_descr err_r in
    let err = In_channel.input_all ic in
    close_in ic;
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
    let pid, out_fd, port = spawn_server ~exe ~dir () in
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

(* --- batched optimistic settlement over the wire ------------------------ *)

let settle_system seed ~settle =
  let small_db = List.filteri (fun i _ -> i < 25) db in
  let system = Protocol.setup ~width ~seed small_db in
  let svc = Net.Service.of_protocol ~settle system in
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
  let small_db, svc, srv = settle_system "net-settle" ~settle in
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
  let _, svc, srv = settle_system "net-settle-bad" ~settle in
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
    let pid, out_fd, port = spawn_server ~extra:settle_flags ~exe ~dir () in
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
    let pid2, out_fd2, port2 = spawn_server ~extra:settle_flags ~exe ~dir () in
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
          Alcotest.test_case "structured refusals" `Quick test_service_refusals ] );
      ( "loopback",
        [ Alcotest.test_case "concurrent clients match Protocol.search" `Quick
            test_concurrent_clients_match_protocol;
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
          Alcotest.test_case "memory gauges after a build" `Quick test_stats_memory_gauges ] );
      ( "event loop",
        [ Alcotest.test_case "decoder: byte-at-a-time" `Quick test_decoder_byte_at_a_time;
          Alcotest.test_case "decoder: zero-copy parsing" `Quick test_decoder_zero_copy;
          Alcotest.test_case "decoder: rejects corruption" `Quick
            test_decoder_rejects_corruption;
          Alcotest.test_case "pipelined requests answered in order" `Quick
            test_pipelined_requests_in_order;
          Alcotest.test_case "slowloris swept without stalling others" `Quick
            test_slowloris_swept_without_stalling;
          Alcotest.test_case "backpressure throttles a non-reader" `Quick
            test_backpressure_throttles_non_reader;
          Alcotest.test_case "pre-handshake garbage dropped silently" `Quick
            test_pre_handshake_garbage_dropped;
          Alcotest.test_case "swarm holds hundreds of sockets" `Quick
            test_swarm_holds_connections ] );
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
            test_shard_identity_checked_on_recovery ] );
      ( "settlement",
        [ Alcotest.test_case "batched settlement over the wire" `Quick
            test_batched_settlement_over_the_wire;
          Alcotest.test_case "dispute slashes a tampering cloud" `Quick
            test_batched_dispute_slashes_over_the_wire;
          Alcotest.test_case "SIGKILL between commit and finalize" `Quick
            test_batched_sigkill_between_commit_and_finalize ] ) ]
