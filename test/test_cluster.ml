(* The cluster layer, bottom-up: the pure shard-key partition function
   (range, prefix-determinism, uniformity within ±10% of even, golden
   stability across restarts), shipment splitting invariants against
   the accumulator, topology parsing and persistence, the deterministic
   sub-request-id derivation — and a live 2-shard cluster on loopback
   behind the router: results byte-identical to a single-server twin,
   exactly-once settlement across replays, and a clean busy refusal
   naming a dead shard — and two real slicer-server shard processes
   that survive a SIGKILL, settle a replay once and trace across
   process boundaries. *)

module Wire = Net.Wire

let prop name ?(count = 100) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let q = Slicer_types.query
let sorted = List.sort String.compare

let check_ids msg expected actual =
  Alcotest.(check (list string)) msg (sorted expected) (sorted actual)

let resp_label = function
  | Wire.Welcome _ -> "Welcome"
  | Wire.Found _ -> "Found"
  | Wire.Accepted _ -> "Accepted"
  | Wire.Pong -> "Pong"
  | Wire.Stats_reply _ -> "Stats_reply"
  | Wire.Traces_reply _ -> "Traces_reply"
  | Wire.Receipt_reply _ -> "Receipt_reply"
  | Wire.Disputed _ -> "Disputed"
  | Wire.Refused { code; detail } ->
    Printf.sprintf "Refused %s (%s)" (Wire.err_code_to_string code) detail

let width = 6
let shard_counts = [ 2; 4; 8 ]

(* --- shard key ------------------------------------------------------------ *)

(* G1 keys are 16 uniform PRF bytes; the fold only reads the first 7. *)
let g1_gen = QCheck2.Gen.(string_size ~gen:char (int_range 7 32))

let shard_key_props =
  [ prop "shard in range, determined by the 7-byte prefix" ~count:500 g1_gen
      (fun g1 ->
        List.for_all
          (fun shards ->
            let s = Cluster.Shard_key.of_g1 ~shards g1 in
            let twin = String.sub g1 0 7 ^ "ignored tail bytes" in
            s >= 0 && s < shards && s = Cluster.Shard_key.of_g1 ~shards twin)
          (1 :: shard_counts));
    prop "sub-request ids are injective" ~count:500
      QCheck2.Gen.(pair (pair string (int_range 0 1024)) (pair string (int_range 0 1024)))
      (fun (((id1, s1) as p1), ((id2, s2) as p2)) ->
        QCheck2.assume (p1 <> p2);
        Cluster.Router.sub_id id1 s1 <> Cluster.Router.sub_id id2 s2) ]

(* ISSUE acceptance: over random PRF labels every shard count in
   {2,4,8} stays within ±10% of a perfectly even split. 20k labels put
   10% of the mean at >5 standard deviations, so a failure means the
   fold is biased, not that the draw was unlucky. *)
let test_shard_key_uniformity () =
  let n = 20_000 in
  let labels =
    let rng = Drbg.create ~seed:"shard-uniformity" in
    List.init n (fun _ -> Drbg.generate rng 16)
  in
  List.iter
    (fun shards ->
      let counts = Array.make shards 0 in
      List.iter
        (fun g1 ->
          let s = Cluster.Shard_key.of_g1 ~shards g1 in
          counts.(s) <- counts.(s) + 1)
        labels;
      let even = n / shards in
      Array.iteri
        (fun i c ->
          if abs (c - even) > even / 10 then
            Alcotest.failf "%d shards: shard %d got %d labels, even share is %d (±10%%)"
              shards i c even)
        counts)
    shard_counts

(* Routing must survive a process restart: it is a pure function of the
   key bytes, pinned here both by goldens (hand-computed from the
   56-bit big-endian prefix fold) and by recomputing a whole assignment
   from an identically-seeded generator. *)
let test_shard_key_stability () =
  let zeros = String.make 16 '\000' in
  let set i c = let b = Bytes.of_string zeros in Bytes.set b i c; Bytes.to_string b in
  let goldens =
    [ (zeros, [ (2, 0); (3, 0); (4, 0); (5, 0); (8, 0) ]);
      (* prefix56 = 1 *)
      (set 6 '\001', [ (2, 1); (3, 1); (4, 1); (5, 1); (8, 1) ]);
      (* prefix56 = 255 *)
      (set 6 '\255', [ (2, 1); (3, 0); (4, 3); (5, 0); (8, 7) ]);
      (* prefix56 = 2^48 *)
      (set 0 '\001', [ (2, 0); (3, 1); (4, 0); (5, 1); (8, 0) ]);
      (* prefix56 = 0x736c696365722 1 = "slicer!" *)
      ("slicer!-padding-", [ (2, 1); (3, 0); (4, 1); (5, 0); (8, 1) ]) ]
  in
  List.iter
    (fun (g1, expected) ->
      List.iter
        (fun (shards, shard) ->
          Alcotest.(check int)
            (Printf.sprintf "golden %S mod %d" g1 shards)
            shard
            (Cluster.Shard_key.of_g1 ~shards g1))
        expected)
    goldens;
  let assignment seed =
    let rng = Drbg.create ~seed in
    List.init 500 (fun _ ->
        let g1 = Drbg.generate rng 16 in
        List.map (fun shards -> Cluster.Shard_key.of_g1 ~shards g1) shard_counts)
  in
  Alcotest.(check bool) "identical across a restart" true
    (assignment "shard-restart" = assignment "shard-restart")

(* --- a built system shared by the pure splitting tests ------------------- *)

let shared =
  lazy
    (let rng = Drbg.create ~seed:"cluster-sys" in
     let keys = Keys.generate ~tdp_bits:512 ~rng () in
     let params = Rsa_acc.setup ~rng ~bits:512 () in
     let owner = Owner.create ~width ~rng ~acc_params:params ~keys () in
     let records = Gen.uniform_records ~rng ~width 30 in
     let shipment = Owner.build owner records in
     (owner, keys, params, records, shipment))

(* Tokens and data must route identically with no shared state: every
   search token's [st_g1] is some shipment group's [kg_g1], so the
   token lands on the shard holding that keyword's counter chain. *)
let test_tokens_route_with_their_group () =
  let owner, keys, _, _, shipment = Lazy.force shared in
  let user =
    User.create ~keys:(Keys.for_user keys) ~width (Owner.export_trapdoor_state owner)
  in
  let rng = Drbg.create ~seed:"route-tokens" in
  let group_keys =
    List.map (fun g -> g.Owner.kg_g1) shipment.Owner.sh_groups
  in
  List.iter
    (fun query ->
      let tokens = User.gen_tokens ~rng user query in
      Alcotest.(check bool) "query produced tokens" true (tokens <> []);
      List.iter
        (fun (t : Slicer_types.search_token) ->
          Alcotest.(check bool) "token key appears in the shipment groups" true
            (List.mem t.Slicer_types.st_g1 group_keys);
          List.iter
            (fun shards ->
              Alcotest.(check int)
                (Printf.sprintf "token and its group agree at %d shards" shards)
                (Cluster.Shard_key.of_g1 ~shards t.Slicer_types.st_g1)
                (Cluster.Shard_key.of_token ~shards t))
            shard_counts)
        tokens)
    [ q 10 Slicer_types.Gt; q 40 Slicer_types.Lt; q 17 Slicer_types.Eq ]

(* --- shipment splitting --------------------------------------------------- *)

let sorted_entries es = List.sort compare es
let prime_strings ps = sorted (List.map Bigint.to_string ps)

let test_split_invariants () =
  let _, _, params, _, shipment = Lazy.force shared in
  let k = 3 in
  let bases = Array.make k params.Rsa_acc.generator in
  let parts = Cluster.Split.shipment ~params ~base_acs:bases shipment in
  Alcotest.(check int) "one shipment per shard" k (Array.length parts);
  Array.iteri
    (fun i (part : Owner.shipment) ->
      List.iter
        (fun g ->
          Alcotest.(check int) "group routed to its own shard" i
            (Cluster.Shard_key.of_group ~shards:k g))
        part.Owner.sh_groups;
      Alcotest.(check (list string))
        "per-shard groups are the owner's groups for that shard, in keyword order"
        (List.filter_map
           (fun g ->
             if Cluster.Shard_key.of_group ~shards:k g = i then Some g.Owner.kg_g1 else None)
           shipment.Owner.sh_groups)
        (List.map (fun g -> g.Owner.kg_g1) part.Owner.sh_groups);
      (* Ac_i = g ^ (prod of this shard's primes): never another
         shard's — what keeps Algorithm-5 checks per-shard. *)
      Alcotest.(check bool) "per-shard accumulator lifts only its own primes" true
        (Bigint.equal part.Owner.sh_ac
           (Rsa_acc.add_batch params params.Rsa_acc.generator (Owner.shipment_primes part))))
    parts;
  let flat f = Array.to_list parts |> List.concat_map f in
  Alcotest.(check (list (pair string string))) "no entry lost or duplicated"
    (sorted_entries (Owner.shipment_entries shipment))
    (sorted_entries (flat Owner.shipment_entries));
  Alcotest.(check (list string)) "no prime lost or duplicated"
    (prime_strings (Owner.shipment_primes shipment))
    (prime_strings (flat Owner.shipment_primes))

let test_split_degenerate_and_archive () =
  let _, _, params, _, shipment = Lazy.force shared in
  (* A 1-shard split is the identity: same entries in order, and the
     accumulation value the owner computed. *)
  (match Cluster.Split.shipment ~params ~base_acs:[| params.Rsa_acc.generator |] shipment with
   | [| only |] ->
     Alcotest.(check (list (pair string string))) "identity on entries"
       (Owner.shipment_entries shipment) (Owner.shipment_entries only);
     Alcotest.(check (list string)) "identity on the groups"
       (List.map (fun g -> g.Owner.kg_g1) shipment.Owner.sh_groups)
       (List.map (fun g -> g.Owner.kg_g1) only.Owner.sh_groups);
     Alcotest.(check bool) "identity on the accumulator" true
       (Bigint.equal shipment.Owner.sh_ac only.Owner.sh_ac)
   | parts -> Alcotest.failf "1-shard split produced %d parts" (Array.length parts));
  (* Pre-cluster archive shipments ([entries; primes; ac], no groups)
     and the later flat-plus-groups form cannot be split faithfully:
     they are refused as malformed before anything could split them. *)
  let entries_blob =
    Bytesutil.concat
      (List.concat_map (fun (l, d) -> [ l; d ]) (Owner.shipment_entries shipment))
  in
  let primes_blob =
    Bytesutil.concat (List.map Bigint.to_bytes_be (Owner.shipment_primes shipment))
  in
  let ac = Bigint.to_bytes_be shipment.Owner.sh_ac in
  let groups_blob =
    Bytesutil.concat (List.map Persist.group_to_bytes shipment.Owner.sh_groups)
  in
  Alcotest.(check bool) "three-piece archive shipment refused" true
    (Persist.shipment_of_bytes (Bytesutil.concat [ entries_blob; primes_blob; ac ]) = None);
  Alcotest.(check bool) "flat-plus-groups shipment refused" true
    (Persist.shipment_of_bytes
       (Bytesutil.concat [ entries_blob; primes_blob; ac; groups_blob ])
     = None);
  (* ... while a genuinely empty shipment splits into empty slices with
     every shard's accumulator untouched. *)
  let empty = { Owner.sh_groups = []; sh_ac = shipment.Owner.sh_ac } in
  let bases = [| shipment.Owner.sh_ac; params.Rsa_acc.generator |] in
  Array.iteri
    (fun i (p : Owner.shipment) ->
      Alcotest.(check bool) "empty slice carries no groups" true (p.Owner.sh_groups = []);
      Alcotest.(check bool) "empty slice leaves Ac_i unchanged" true
        (Bigint.equal bases.(i) p.Owner.sh_ac))
    (Cluster.Split.shipment ~params ~base_acs:bases empty)

(* --- topology -------------------------------------------------------------- *)

let test_topology_endpoints () =
  let ok s expected =
    match Cluster.Topology.endpoint_of_string s with
    | Ok ep ->
      Alcotest.(check bool) (s ^ " parses") true (ep = expected);
      Alcotest.(check string) (s ^ " round-trips")
        (Cluster.Topology.endpoint_to_string ep)
        (Cluster.Topology.endpoint_to_string expected)
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  ok "127.0.0.1:7071" (Net.Server.Tcp ("127.0.0.1", 7071));
  ok "::1:7071" (Net.Server.Tcp ("::1", 7071));
  ok "[::1]:8080" (Net.Server.Tcp ("::1", 8080));
  ok "[fe80::2]:9000" (Net.Server.Tcp ("fe80::2", 9000));
  ok "unix:/tmp/slicer.sock" (Net.Server.Unix_socket "/tmp/slicer.sock");
  ok "unix:/var/run/sock:with:colons" (Net.Server.Unix_socket "/var/run/sock:with:colons");
  List.iter
    (fun s ->
      match Cluster.Topology.endpoint_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S parsed as an endpoint" s)
    [ "nohost"; "host:"; "host:notaport"; "host:0"; "host:70000"; ":7071"; "unix:";
      "[::1:8080"; "::1]:8080" ];
  Alcotest.(check bool) "empty topology refused" true
    (try ignore (Cluster.Topology.create []); false with Invalid_argument _ -> true)

(* The printer and the parser are exact inverses: any endpoint —
   hostnames, IPv6 literals (bracketed on print), unix paths with
   colons — survives a print/parse round trip structurally intact.
   [unix] is excluded from the host alphabet because a host literally
   named "unix" is genuinely ambiguous with the unix: scheme prefix. *)
let endpoint_gen =
  QCheck2.Gen.(
    let host =
      string_size ~gen:(oneofl [ 'a'; 'z'; '0'; '9'; '.'; ':'; '-' ]) (int_range 1 16)
    in
    let path =
      string_size ~gen:(oneofl [ '/'; 't'; 'm'; 'p'; '-'; '.'; ':'; '7' ]) (int_range 1 20)
    in
    oneof
      [ map2 (fun h p -> Net.Server.Tcp (h, p)) host (int_range 1 65535);
        map (fun p -> Net.Server.Unix_socket p) path ])

let topology_props =
  [ prop "endpoint strings round-trip" ~count:500 endpoint_gen (fun ep ->
        match
          Cluster.Topology.endpoint_of_string (Cluster.Topology.endpoint_to_string ep)
        with
        | Ok ep' -> ep' = ep
        | Error _ -> false) ]

let test_topology_save_load () =
  let dir = Filename.temp_file "slicer-topo" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let path = Filename.concat dir "topology" in
      let topo =
        Cluster.Topology.create
          [ Net.Server.Tcp ("127.0.0.1", 7071);
            Net.Server.Unix_socket "/var/run/slicer-1.sock";
            Net.Server.Tcp ("10.0.0.7", 9000) ]
      in
      Cluster.Topology.save ~path topo;
      match Cluster.Topology.load ~path with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok back ->
        Alcotest.(check int) "shard count survives" (Cluster.Topology.shards topo)
          (Cluster.Topology.shards back);
        Alcotest.(check (list string)) "shard order survives"
          (List.map Cluster.Topology.endpoint_to_string (Cluster.Topology.endpoints topo))
          (List.map Cluster.Topology.endpoint_to_string (Cluster.Topology.endpoints back));
        (* A corrupt file is a structured error, not a crash. *)
        let oc = open_out (Filename.concat dir "garbage") in
        output_string oc "not a topology";
        close_out oc;
        (match Cluster.Topology.load ~path:(Filename.concat dir "garbage") with
         | Error _ -> ()
         | Ok _ -> Alcotest.fail "garbage loaded as a topology"))

(* --- the live 2-shard cluster ---------------------------------------------- *)

(* Two shard services behind a router, and a lone single-server twin
   built from the same owner materials: every query must come back
   verified with the same ids from both, the router's merged reply must
   carry per-shard parts whose claims re-assemble the full answer, a
   replayed pinned request must not settle twice anywhere, and a killed
   shard must surface as a busy refusal naming it. *)
let test_cluster_end_to_end () =
  let rng = Drbg.create ~seed:"cluster-e2e" in
  let keys = Keys.generate ~tdp_bits:512 ~rng () in
  let acc_params = Rsa_acc.setup ~rng ~bits:512 () in
  let owner = Owner.create ~width ~rng ~acc_params ~keys () in
  let records = Gen.uniform_records ~rng ~width 40 in
  let shipment = Owner.build owner records in
  let svc_solo = Net.Service.create ~instance:"solo" () in
  let svc0 = Net.Service.create ~instance:"shard-0" ~shard:(0, 2) () in
  let svc1 = Net.Service.create ~instance:"shard-1" ~shard:(1, 2) () in
  let srv_solo = Net.Server.start (Net.Service.handle svc_solo) in
  let srv0 = Net.Server.start (Net.Service.handle svc0) in
  let srv1 = Net.Server.start (Net.Service.handle svc1) in
  let topo =
    Cluster.Topology.create [ Net.Server.endpoint srv0; Net.Server.endpoint srv1 ]
  in
  let router =
    Cluster.Router.create
      ~config:
        { Cluster.Router.default_config with
          client =
            { Net.Client.default_config with max_attempts = 2; backoff_base = 0.02 } }
      ~instance:"router-test" topo
  in
  let srv_router = Net.Server.start (Cluster.Router.handle router) in
  Fun.protect
    ~finally:(fun () ->
      Net.Server.stop srv_router;
      Cluster.Router.close router;
      (* srv1 may already be stopped by the dead-shard leg. *)
      (try Net.Server.stop srv1 with _ -> ());
      Net.Server.stop srv0;
      Net.Server.stop srv_solo)
    (fun () ->
      let connect ?(provision = true) name srv =
        match
          Net.Client.connect ~name ~provision (Net.Server.endpoint srv)
        with
        | Ok c -> c
        | Error e -> Alcotest.failf "connect %s: %s" name (Net.Client.error_to_string e)
      in
      let build c =
        Net.Client.build c ~width ~payment:500 ~acc:acc_params
          ~tdp_public:keys.Keys.tdp_public ~user_keys:(Keys.for_user keys) ~shipment
          ~trapdoor:(Owner.export_trapdoor_state owner)
      in
      (* One Build request to the router boots the whole cluster; the
         same shipment boots the twin. *)
      let oc_r = connect ~provision:false "e2e-owner" srv_router in
      (match build oc_r with
       | Ok g -> Alcotest.(check int) "cluster built at generation 1" 1 g
       | Error e -> Alcotest.failf "cluster build: %s" (Net.Client.error_to_string e));
      let oc_s = connect ~provision:false "e2e-owner" srv_solo in
      (match build oc_s with
       | Ok g -> Alcotest.(check int) "twin built at generation 1" 1 g
       | Error e -> Alcotest.failf "twin build: %s" (Net.Client.error_to_string e));
      (* The router's merged Welcome declares the topology; a stale
         protocol is refused before any fan-out. *)
      let uc_r = connect "e2e-user" srv_router in
      (match
         Net.Client.rpc uc_r (Wire.Hello { client = "e2e-user"; proto = Wire.proto_version })
       with
       | Ok (Wire.Welcome p) ->
         Alcotest.(check int) "welcome names both shards" 2 p.Wire.pv_shards;
         Alcotest.(check string) "welcome names the router" "router-test" p.Wire.pv_instance
       | Ok _ -> Alcotest.fail "hello through the router did not provision"
       | Error e -> Alcotest.failf "hello: %s" (Net.Client.error_to_string e));
      List.iter
        (fun proto ->
          match Cluster.Router.handle router (Wire.Hello { client = "old"; proto }) with
          | Wire.Refused { code = Wire.Version_mismatch; _ } -> ()
          | _ -> Alcotest.failf "protocol %d hello not refused as a version mismatch" proto)
        [ 1; Wire.proto_version - 1 ];
      (* Merged stats name the router and its shard sections. *)
      (match Cluster.Router.handle router Wire.Stats with
       | Wire.Stats_reply { st_json; _ } ->
         let contains needle =
           let nh = String.length st_json and nn = String.length needle in
           let rec go i = i + nn <= nh && (String.sub st_json i nn = needle || go (i + 1)) in
           go 0
         in
         Alcotest.(check bool) "merged stats carry the shard list" true
           (contains "\"router\"" && contains "\"shards\"")
       | r -> Alcotest.failf "stats through the router: %s" (resp_label r));
      (* Every query: verified on both paths, identical id sets, and
         both equal to the plaintext reference. *)
      let uc_s = connect "e2e-user" srv_solo in
      List.iter
        (fun query ->
          match (Net.Client.search uc_r query, Net.Client.search uc_s query) with
          | Ok cluster, Ok solo ->
            Alcotest.(check bool) "cluster search verified" true cluster.Protocol.so_verified;
            Alcotest.(check bool) "solo search verified" true solo.Protocol.so_verified;
            check_ids "cluster matches the single server" solo.Protocol.so_ids
              cluster.Protocol.so_ids;
            check_ids "both match the reference"
              (Slicer_types.reference_search records query)
              cluster.Protocol.so_ids
          | Error e, _ -> Alcotest.failf "cluster search: %s" (Net.Client.error_to_string e)
          | _, Error e -> Alcotest.failf "solo search: %s" (Net.Client.error_to_string e))
        [ q 10 Slicer_types.Gt; q 20 Slicer_types.Lt; q 17 Slicer_types.Eq;
          q 55 Slicer_types.Gt ];
      (* A pinned raw search: the reply must carry per-shard parts whose
         merged claims cover every token, and replaying the same
         request id must not settle anywhere a second time. *)
      let user =
        User.create ~keys:(Keys.for_user keys) ~width (Owner.export_trapdoor_state owner)
      in
      let trng = Drbg.create ~seed:"e2e-tokens" in
      let tokens = User.gen_tokens ~rng:trng user (q 15 Slicer_types.Lt) in
      let pinned =
        Wire.Search
          { client = "e2e-user"; request_id = "pinned#1"; batched = false; tokens; trace = None }
      in
      let reply req =
        match Net.Client.rpc uc_r req with
        | Ok (Wire.Found r) -> r
        | Ok r -> Alcotest.failf "pinned search: %s" (resp_label r)
        | Error e -> Alcotest.failf "pinned search: %s" (Net.Client.error_to_string e)
      in
      let r1 = reply pinned in
      Alcotest.(check bool) "router reply carries shard parts" true (r1.Wire.sr_parts <> []);
      List.iter
        (fun (p : Wire.shard_part) ->
          Alcotest.(check bool) "part names a real shard" true
            (p.Wire.shp_shard = 0 || p.Wire.shp_shard = 1))
        r1.Wire.sr_parts;
      Alcotest.(check int) "one merged claim per token" (List.length tokens)
        (List.length r1.Wire.sr_claims);
      Alcotest.(check int) "parts re-assemble the full claim set"
        (List.length r1.Wire.sr_claims)
        (List.fold_left (fun n (p : Wire.shard_part) -> n + List.length p.Wire.shp_claims)
           0 r1.Wire.sr_parts);
      let settled () =
        ( Net.Service.searches_settled svc0,
          Net.Service.searches_settled svc1,
          Net.Service.searches_settled svc_solo )
      in
      let before = settled () in
      let r2 = reply pinned in
      Alcotest.(check bool) "replay settled nowhere" true (before = settled ());
      Alcotest.(check string) "replayed reply is for the pinned id" r1.Wire.sr_request_id
        r2.Wire.sr_request_id;
      Alcotest.(check int) "replayed claim count unchanged"
        (List.length r1.Wire.sr_claims) (List.length r2.Wire.sr_claims);
      Alcotest.(check bool) "replayed accumulator unchanged" true
        (Bigint.equal r1.Wire.sr_ac r2.Wire.sr_ac);
      (* Insert through the router: both shards bump together and the
         new record is searchable on both paths. *)
      let fresh = Slicer_types.record_of_value "cluster-new" 3 in
      let shipment2 = Owner.insert owner [ fresh ] in
      let insert c =
        Net.Client.insert c ~shipment:shipment2
          ~trapdoor:(Owner.export_trapdoor_state owner)
      in
      (match insert oc_r with
       | Ok g -> Alcotest.(check int) "cluster generation bumped" 2 g
       | Error e -> Alcotest.failf "cluster insert: %s" (Net.Client.error_to_string e));
      (match insert oc_s with
       | Ok g -> Alcotest.(check int) "twin generation bumped" 2 g
       | Error e -> Alcotest.failf "twin insert: %s" (Net.Client.error_to_string e));
      (match (Net.Client.refresh uc_r, Net.Client.refresh uc_s) with
       | Ok (), Ok () -> ()
       | Error e, _ | _, Error e ->
         Alcotest.failf "refresh: %s" (Net.Client.error_to_string e));
      Alcotest.(check int) "router provision sees the new generation" 2
        (Net.Client.generation uc_r);
      (match (Net.Client.search uc_r (q 3 Slicer_types.Eq), Net.Client.search uc_s (q 3 Slicer_types.Eq)) with
       | Ok cluster, Ok solo ->
         Alcotest.(check bool) "post-insert cluster search verified" true
           cluster.Protocol.so_verified;
         Alcotest.(check bool) "insert visible through the router" true
           (List.mem "cluster-new" cluster.Protocol.so_ids);
         check_ids "post-insert twins agree" solo.Protocol.so_ids cluster.Protocol.so_ids
       | Error e, _ | _, Error e ->
         Alcotest.failf "post-insert search: %s" (Net.Client.error_to_string e));
      (* One traced search: the scraped, reassembled tree must span the
         router fan-out, both shards' phases and the merge under a
         single trace id, with properly nested intervals. *)
      Trace.set_slow_ms (Some 0.);
      ignore (Trace.drain () : Trace.span list);
      Fun.protect
        ~finally:(fun () -> Trace.set_slow_ms None)
        (fun () ->
          match Net.Client.search uc_r (q 10 Slicer_types.Gt) with
          | Ok out ->
            Alcotest.(check bool) "traced search verified" true out.Protocol.so_verified
          | Error e -> Alcotest.failf "traced search: %s" (Net.Client.error_to_string e));
      let spans =
        match Net.Client.traces uc_r with
        | Ok spans -> spans
        | Error e -> Alcotest.failf "traces drain: %s" (Net.Client.error_to_string e)
      in
      (match Trace.Tree.assemble spans with
       | [ tree ] ->
         let all = ref [] in
         let rec walk parent node =
           let sp = node.Trace.Tree.n_span in
           all := sp :: !all;
           Alcotest.(check bool)
             (Printf.sprintf "span %s is monotone" sp.Trace.sp_name)
             true
             (sp.Trace.sp_start_ns <= sp.Trace.sp_end_ns);
           (match (parent : Trace.span option) with
            | Some p ->
              Alcotest.(check bool)
                (Printf.sprintf "span %s nests inside %s" sp.Trace.sp_name p.Trace.sp_name)
                true
                (p.Trace.sp_start_ns <= sp.Trace.sp_start_ns
                && sp.Trace.sp_end_ns <= p.Trace.sp_end_ns)
            | None -> ());
           List.iter (walk (Some sp)) node.Trace.Tree.n_children
         in
         List.iter (walk None) tree.Trace.Tree.t_roots;
         let named n = List.filter (fun sp -> sp.Trace.sp_name = n) !all in
         Alcotest.(check int) "one router root span" 1
           (List.length (named "router.search"));
         Alcotest.(check int) "one merge span" 1 (List.length (named "router.merge"));
         let shard_tags name =
           List.sort compare
             (List.filter_map
                (fun sp -> List.assoc_opt "shard" sp.Trace.sp_tags)
                (named name))
         in
         Alcotest.(check (list string)) "fan-out hit both shards" [ "0"; "1" ]
           (shard_tags "router.shard");
         Alcotest.(check (list string)) "both shards recorded their search phase"
           [ "0"; "1" ] (shard_tags "service.search");
         Alcotest.(check int) "both shards timed their wait for the service lock" 2
           (List.length (named "service.lock_wait"))
       | l -> Alcotest.failf "expected one assembled trace, got %d trees" (List.length l));
      (* Kill shard 1. A search whose tokens touch it must come back as
         a busy refusal naming the shard — never a half answer. *)
      Net.Server.stop srv1;
      let user2 =
        User.create ~keys:(Keys.for_user keys) ~width (Owner.export_trapdoor_state owner)
      in
      let krng = Drbg.create ~seed:"e2e-kill-tokens" in
      let rec tokens_for_shard1 v =
        if v >= 1 lsl width then Alcotest.fail "no query routed to shard 1"
        else
          let ts = User.gen_tokens ~rng:krng user2 (q v Slicer_types.Eq) in
          if List.exists (fun t -> Cluster.Shard_key.of_token ~shards:2 t = 1) ts then ts
          else tokens_for_shard1 (v + 1)
      in
      let ts = tokens_for_shard1 0 in
      (match
         Cluster.Router.handle router
           (Wire.Search
              { client = "e2e-user"; request_id = "down#1"; batched = false; tokens = ts; trace = None })
       with
       | Wire.Refused { code = Wire.Busy; detail } ->
         let contains needle =
           let nh = String.length detail and nn = String.length needle in
           let rec go i = i + nn <= nh && (String.sub detail i nn = needle || go (i + 1)) in
           go 0
         in
         Alcotest.(check bool)
           (Printf.sprintf "refusal names the dead shard (got %S)" detail)
           true (contains "shard 1")
       | Wire.Refused { code; detail } ->
         Alcotest.failf "dead shard refused as %s (%s), wanted busy"
           (Wire.err_code_to_string code) detail
       | _ -> Alcotest.fail "search touching a dead shard was answered");
      Net.Client.close uc_s;
      Net.Client.close uc_r;
      Net.Client.close oc_s;
      Net.Client.close oc_r)

(* --- real shard processes -------------------------------------------------- *)

(* One counter summed over a router's merged scrape: the router's own
   exposition and every shard's, labelled by instance or not. *)
let cluster_counter c name =
  match Net.Client.stats c with
  | Error e -> Alcotest.failf "stats: %s" (Net.Client.error_to_string e)
  | Ok (_, text) ->
    String.split_on_char '\n' text
    |> List.fold_left
         (fun acc line ->
           match String.split_on_char ' ' line with
           | [ n; v ] when n = name || String.starts_with ~prefix:(name ^ "{") n ->
             acc + Option.value ~default:0 (int_of_string_opt v)
           | _ -> acc)
         0

(* Two slicer-server shard processes, durable with fsync on and tracing
   every request, behind an in-process router. A pinned request settles
   on both shards; shard 1 is SIGKILLed and restarted on its port and
   state dir. Afterwards a fresh search verifies, replaying the pinned
   id settles nowhere and repeats the original claims, and a search
   whose tokens reach both shards drains, over the wire, as one trace
   tree that holds each shard process's service phase. *)
let test_shard_sigkill_drill () =
  match Server_proc.server_exe () with
  | None -> Alcotest.skip ()
  | Some exe ->
    let spawn ?port i dir =
      Server_proc.spawn_server ?port ~exe ~dir
        ~extra:
          [ "--shard-id"; string_of_int i; "--shard-count"; "2"; "--instance";
            Printf.sprintf "shard-%d" i; "--trace-slow-ms"; "0" ]
        ()
    in
    let stop (pid, out, _) =
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      try Unix.close out with Unix.Unix_error _ -> ()
    in
    let dirs = Array.init 2 (fun _ -> Server_proc.fresh_state_dir ()) in
    let shards = Array.mapi spawn dirs in
    Fun.protect
      ~finally:(fun () ->
        Array.iter stop shards;
        Array.iter Server_proc.rm_rf dirs)
    @@ fun () ->
    let topo =
      Cluster.Topology.create
        (Array.to_list (Array.map (fun (_, _, port) -> Net.Server.Tcp ("127.0.0.1", port)) shards))
    in
    let router = Cluster.Router.create topo in
    let srv = Net.Server.start (Cluster.Router.handle router) in
    Trace.set_slow_ms (Some 0.);
    Fun.protect
      ~finally:(fun () ->
        Trace.set_slow_ms None;
        Net.Server.stop srv;
        Cluster.Router.close router)
    @@ fun () ->
    let connect ?(provision = true) name =
      match Net.Client.connect ~name ~provision (Net.Server.endpoint srv) with
      | Ok c -> c
      | Error e -> Alcotest.failf "connect %s: %s" name (Net.Client.error_to_string e)
    in
    let rng = Drbg.create ~seed:"cluster-drill" in
    let keys = Keys.generate ~tdp_bits:512 ~rng () in
    let acc_params = Rsa_acc.setup ~rng ~bits:512 () in
    let owner = Owner.create ~width ~rng ~acc_params ~keys () in
    let shipment = Owner.build owner (Gen.uniform_records ~rng ~width 60) in
    let trapdoor = Owner.export_trapdoor_state owner in
    let oc = connect ~provision:false "drill-owner" in
    (match
       Net.Client.build oc ~width ~payment:500 ~acc:acc_params ~tdp_public:keys.Keys.tdp_public
         ~user_keys:(Keys.for_user keys) ~shipment ~trapdoor
     with
     | Ok g -> Alcotest.(check int) "built through the router" 1 g
     | Error e -> Alcotest.failf "build: %s" (Net.Client.error_to_string e));
    Net.Client.close oc;
    let uc = connect "drill-user" in
    Fun.protect ~finally:(fun () -> Net.Client.close uc) @@ fun () ->
    (* A value whose Gt tokens reach both shards. *)
    let user = User.create ~keys:(Keys.for_user keys) ~width trapdoor in
    let trng = Drbg.create ~seed:"drill-tokens" in
    let tokens_of v = User.gen_tokens ~rng:trng user (q v Slicer_types.Gt) in
    let both_shards ts =
      List.sort_uniq compare (List.map (Cluster.Shard_key.of_token ~shards:2) ts) = [ 0; 1 ]
    in
    let v =
      match List.find_opt (fun v -> both_shards (tokens_of v)) (List.init 32 succ) with
      | Some v -> v
      | None -> Alcotest.fail "no query reaches both shards"
    in
    let pinned =
      Wire.Search
        { client = Net.Client.name uc; request_id = "drill-pinned#1"; batched = false;
          tokens = tokens_of v; trace = None }
    in
    let send label =
      match Net.Client.rpc uc pinned with
      | Ok (Wire.Found r) -> r
      | Ok r -> Alcotest.failf "pinned %s: %s" label (resp_label r)
      | Error e -> Alcotest.failf "pinned %s: %s" label (Net.Client.error_to_string e)
    in
    let r1 = send "send" in
    let _, _, port1 = shards.(1) in
    stop shards.(1);
    shards.(1) <- spawn ~port:port1 1 dirs.(1);
    (match Net.Client.search uc (q 1 Slicer_types.Gt) with
     | Ok out -> Alcotest.(check bool) "search after recovery verified" true out.Protocol.so_verified
     | Error e -> Alcotest.failf "search after recovery: %s" (Net.Client.error_to_string e));
    let settled = "slicer_net_searches_settled_total" in
    let s1 = cluster_counter uc settled in
    Alcotest.(check bool) "the scrape counts the shards' settlements" true (s1 > 0);
    let r2 = send "replay" in
    Alcotest.(check int) "the replay settled nowhere" s1 (cluster_counter uc settled);
    Alcotest.(check string) "the replay repeats the original claims"
      (Slicer_contract.encode_claims r1.Wire.sr_claims)
      (Slicer_contract.encode_claims r2.Wire.sr_claims);
    (* The cross-process trace: clear every ring, search, drain again. *)
    let drain () =
      match Net.Client.traces uc with
      | Ok spans -> spans
      | Error e -> Alcotest.failf "traces: %s" (Net.Client.error_to_string e)
    in
    ignore (drain () : Trace.span list);
    (match Net.Client.search uc (q v Slicer_types.Gt) with
     | Ok out -> Alcotest.(check bool) "traced search verified" true out.Protocol.so_verified
     | Error e -> Alcotest.failf "traced search: %s" (Net.Client.error_to_string e));
    let rec flat acc n = List.fold_left flat (n.Trace.Tree.n_span :: acc) n.Trace.Tree.n_children in
    let trees =
      List.map (fun t -> List.fold_left flat [] t.Trace.Tree.t_roots) (Trace.Tree.assemble (drain ()))
    in
    let has name spans = List.exists (fun sp -> sp.Trace.sp_name = name) spans in
    match List.filter (has "router.search") trees with
    | [ spans ] ->
      Alcotest.(check bool) "the tree holds the merge" true (has "router.merge" spans);
      List.iter
        (fun inst ->
          Alcotest.(check bool)
            (Printf.sprintf "the tree holds %s's service.search" inst)
            true
            (List.exists
               (fun sp -> sp.Trace.sp_name = "service.search" && sp.Trace.sp_instance = inst)
               spans))
        [ "shard-0"; "shard-1" ]
    | l -> Alcotest.failf "expected one routed trace, drained %d" (List.length l)

let () =
  Alcotest.run "cluster"
    [ ("shard key",
       [ Alcotest.test_case "uniform within 10% at 2/4/8 shards" `Quick
           test_shard_key_uniformity;
         Alcotest.test_case "stable across restarts (goldens)" `Quick
           test_shard_key_stability;
         Alcotest.test_case "tokens route with their keyword group" `Quick
           test_tokens_route_with_their_group ]
       @ shard_key_props);
      ("split",
       [ Alcotest.test_case "invariants at 3 shards" `Quick test_split_invariants;
         Alcotest.test_case "degenerate and archive shipments" `Quick
           test_split_degenerate_and_archive ]);
      ("topology",
       [ Alcotest.test_case "endpoint parsing" `Quick test_topology_endpoints;
         Alcotest.test_case "save and load" `Quick test_topology_save_load ]
       @ topology_props);
      ("router",
       [ Alcotest.test_case "2-shard cluster end to end" `Quick test_cluster_end_to_end;
         Alcotest.test_case "shard processes: SIGKILL drill and trace" `Quick
           test_shard_sigkill_drill ]) ]
