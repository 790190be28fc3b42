(* Ablation benches for the design choices DESIGN.md calls out:

   A. SORE vs the ORE/OPE family it replaces — ciphertext size and
      encrypt/compare cost. SORE pays O(b) 16-byte slices to turn order
      comparison into exact keyword match; Lewi-Wu pays O(2^b) right
      ciphertexts for constant compare; Chenette is tiny but leaks the
      first differing bit positionally and cannot be indexed as
      keywords; OPE is tiny and fast but order-revealing to everyone.

   B. RSA accumulator vs Merkle tree as the ADS — proof size and
      verification cost. The paper picks the accumulator for its
      constant-size, position-free witnesses (what keeps on-chain
      verification O(1) storage); Merkle proofs are logarithmic and
      reveal the leaf position.

   C. Per-query vs precomputed witness generation is measured by the
      witness figure ([bench/main.exe witness]): its cold, warm and
      warm_all columns. *)

let ops_per_sec f =
  let t0 = Unix.gettimeofday () in
  let n = ref 0 in
  while Unix.gettimeofday () -. t0 < 0.3 do
    f ();
    incr n
  done;
  float_of_int !n /. (Unix.gettimeofday () -. t0)

let ore_ablation () =
  Bench_common.header "Ablation A - SORE vs ORE/OPE baselines (width 8)";
  let width = 8 in
  let rng = Drbg.create ~seed:"ablation-ore" in
  let sore_key = Sore.keygen ~rng in
  let chen_key = Chenette.keygen ~rng in
  let lw_key = Lewi_wu.keygen ~rng in
  let ope_key = Ope.keygen ~rng in
  let v () = Drbg.uniform_int rng (1 lsl width) in
  (* Representative ciphertexts for size reporting. *)
  let sore_ct = Sore.encrypt ~rng sore_key ~width (v ()) in
  let chen_ct = Chenette.encrypt chen_key ~width (v ()) in
  let chen_ct2 = Chenette.encrypt chen_key ~width (v ()) in
  let lw_left = Lewi_wu.encrypt_left lw_key ~width (v ()) in
  let lw_right = Lewi_wu.encrypt_right ~rng lw_key ~width (v ()) in
  let sore_tk = Sore.token ~rng sore_key ~width (v ()) Bitvec.Gt in
  Bench_common.row_header [ "scheme"; "ct bytes"; "enc/s"; "cmp/s"; "indexable" ];
  Bench_common.row "SORE"
    [ string_of_int (Sore.ciphertext_bytes sore_ct);
      Printf.sprintf "%.0f" (ops_per_sec (fun () -> ignore (Sore.encrypt ~rng sore_key ~width (v ()))));
      Printf.sprintf "%.0f" (ops_per_sec (fun () -> ignore (Sore.compare_ct sore_ct sore_tk)));
      "yes (keyword)" ];
  Bench_common.row "Chenette"
    [ string_of_int (Chenette.ciphertext_bytes chen_ct);
      Printf.sprintf "%.0f" (ops_per_sec (fun () -> ignore (Chenette.encrypt chen_key ~width (v ()))));
      Printf.sprintf "%.0f" (ops_per_sec (fun () -> ignore (Chenette.compare_ct chen_ct chen_ct2)));
      "no (positional)" ];
  Bench_common.row "Lewi-Wu"
    [ Printf.sprintf "%d+%d" (Lewi_wu.left_bytes lw_left) (Lewi_wu.right_bytes lw_right);
      Printf.sprintf "%.0f" (ops_per_sec (fun () -> ignore (Lewi_wu.encrypt_right ~rng lw_key ~width (v ()))));
      Printf.sprintf "%.0f" (ops_per_sec (fun () -> ignore (Lewi_wu.compare_ct lw_left lw_right)));
      "no (slot table)" ];
  Bench_common.row "OPE"
    [ "6";
      Printf.sprintf "%.0f" (ops_per_sec (fun () -> ignore (Ope.encrypt ope_key ~width (v ()))));
      Printf.sprintf "%.0f" (ops_per_sec (fun () -> ignore (Ope.compare_ct 1 2)));
      "order leaks" ]

let ads_ablation () =
  Bench_common.header "Ablation B - RSA accumulator vs Merkle tree ADS";
  let params = Rsa_acc.setup ~rng:(Drbg.create ~seed:"ablation-ads") ~bits:512 () in
  Bench_common.row_header
    [ "set size"; "acc build"; "mk build"; "acc proof"; "mk proof"; "acc verify"; "mk verify" ];
  List.iter
    (fun n ->
      let elems = List.init n (fun i -> Printf.sprintf "elem-%d" i) in
      let primes = List.map Prime_rep.to_prime elems in
      let ac, acc_build = Bench_common.time (fun () -> Rsa_acc.accumulate params primes) in
      let tree, mk_build = Bench_common.time (fun () -> Merkle.build elems) in
      let x = List.hd primes in
      let witness = Rsa_acc.mem_witness params primes x in
      let proof = Merkle.prove tree 0 in
      let acc_verify = ops_per_sec (fun () -> ignore (Rsa_acc.verify_mem params ~ac ~x ~witness)) in
      let mk_verify =
        ops_per_sec (fun () -> ignore (Merkle.verify ~root:(Merkle.root tree) ~leaf:"elem-0" proof))
      in
      Bench_common.row (string_of_int n)
        [ Bench_common.seconds acc_build;
          Bench_common.seconds mk_build;
          "64B";
          Printf.sprintf "%dB" (Merkle.proof_size_bytes proof);
          Printf.sprintf "%.0f/s" acc_verify;
          Printf.sprintf "%.0f/s" mk_verify ])
    [ 100; 400; 1600 ];
  Printf.printf
    "\n(accumulator: constant 64B witnesses, position-free, modexp verify;\n\
    \ Merkle: log-size proofs, position-revealing, hash verify - the paper's Section III trade)\n"

let batched_ablation () =
  Bench_common.header "Ablation D - per-claim vs batched on-chain settlement (order search)";
  let rng = Drbg.create ~seed:"ablation-batched" in
  let db = Gen.uniform_records ~rng ~width:8 60 in
  let system = Protocol.setup ~width:8 ~seed:"ablation-batched" db in
  Cloud.precompute_witnesses (Protocol.cloud system);
  let query = Slicer_types.query 255 Slicer_types.Gt in (* 8 one-bits -> up to 8 tokens *)
  let plain = Protocol.search system query in
  let batched = Protocol.search_batched system query in
  Bench_common.row_header [ "path"; "tokens"; "VO bytes"; "gas"; "verified" ];
  Bench_common.row "per-claim"
    [ string_of_int plain.Protocol.so_token_count;
      string_of_int plain.Protocol.so_vo_bytes;
      string_of_int plain.Protocol.so_gas_used;
      string_of_bool plain.Protocol.so_verified ];
  Bench_common.row "batched"
    [ string_of_int batched.Protocol.so_token_count;
      string_of_int batched.Protocol.so_vo_bytes;
      string_of_int batched.Protocol.so_gas_used;
      string_of_bool batched.Protocol.so_verified ];
  Printf.printf
    "\n(one Rsa_acc.batch_witness covers all claims: k x 64B of VOs collapse to 64B\n\
    \ and the cloud runs one accumulator pass instead of k)\n"

let servedb_ablation () =
  Bench_common.header "Ablation E - Slicer vs ServeDB-style range search (width 8, 500 records)";
  let width = 8 in
  let rng = Drbg.create ~seed:"ablation-servedb" in
  let pairs = List.init 500 (fun i -> (Printf.sprintf "R%d" i, Drbg.uniform_int rng (1 lsl width))) in
  let records = List.map (fun (id, v) -> Slicer_types.record_of_value id v) pairs in
  (* Slicer side: interval (50, 150) = (50,'<') AND (150,'>'). *)
  let slicer = Protocol.setup ~width ~seed:"ablation-servedb" records in
  Cloud.precompute_witnesses (Protocol.cloud slicer);
  let s_out, s_time = Bench_common.time (fun () -> Protocol.search_between slicer ~lo:50 ~hi:150 ()) in
  (* ServeDB side: same range, [51, 149] inclusive. *)
  let key = Servedb.keygen ~rng in
  let server = Servedb.build key ~width pairs in
  let (rsp, verified), v_time =
    Bench_common.time (fun () ->
        let rsp = Servedb.search key server ~width ~lo:51 ~hi:149 in
        let ok =
          Servedb.verify_and_decrypt key ~root:(Servedb.root server) ~width ~lo:51 ~hi:149 rsp
        in
        (rsp, ok <> None))
  in
  Bench_common.row_header [ "system"; "tokens"; "proof bytes"; "time"; "public verify" ];
  Bench_common.row "Slicer"
    [ string_of_int s_out.Protocol.so_token_count;
      string_of_int s_out.Protocol.so_vo_bytes;
      Bench_common.seconds s_time;
      string_of_bool s_out.Protocol.so_verified ];
  Bench_common.row "ServeDB-like"
    [ string_of_int (List.length (Dyadic.cover ~width ~lo:51 ~hi:149));
      string_of_int (Servedb.proof_bytes rsp);
      Bench_common.seconds v_time;
      Printf.sprintf "no (%b)" verified ];
  Printf.printf
    "\n(ServeDB resolves a range with few dyadic tokens and hash proofs, but its\n\
    \ verification needs the secret keys and decryption - it cannot settle on a\n\
    \ contract; Slicer pays constant-size RSA witnesses for public settlement)\n"

let forward_ablation () =
  Bench_common.header "Ablation F - forward security's price: search cost vs update count";
  Printf.printf
    "(each insert touching a keyword deepens its trapdoor chain by one generation;\n\
    \ the cloud walks the whole chain on every search - Alg. 4's outer loop)\n";
  let width = 8 in
  Bench_common.row_header [ "updates"; "generations"; "result gen"; "VO gen"; "results" ];
  List.iter
    (fun updates ->
      let sys = Bench_common.build_system_uncached ~width ~size:200 in
      let hot = 77 in
      for k = 1 to updates do
        ignore
          (Owner.insert sys.Bench_common.bs_owner
             [ Slicer_types.record_of_value (Printf.sprintf "hot-%d-%d" updates k) hot ]
           |> Bench_common.install sys.Bench_common.bs_cloud)
      done;
      User.update_state sys.Bench_common.bs_user (Owner.export_trapdoor_state sys.Bench_common.bs_owner);
      let tokens =
        User.gen_tokens ~rng:sys.Bench_common.bs_rng sys.Bench_common.bs_user
          (Slicer_types.query hot Slicer_types.Eq)
      in
      let generations =
        match tokens with t :: _ -> t.Slicer_types.st_updates | [] -> 0
      in
      match Bench_common.timed_search sys.Bench_common.bs_cloud tokens with
      | None -> failwith "ablation F: a fresh cloud answered from its claim cache"
      | Some (claims, result_s, vo_s) ->
        let nresults =
          List.fold_left (fun n (c : Slicer_contract.claim) -> n + List.length c.Slicer_contract.results) 0 claims
        in
        Bench_common.row (string_of_int updates)
          [ string_of_int generations;
            Bench_common.seconds result_s;
            Bench_common.seconds vo_s;
            string_of_int nresults ])
    [ 0; 8; 32; 128 ]

let run () =
  ore_ablation ();
  ads_ablation ();
  batched_ablation ();
  servedb_ablation ();
  forward_ablation ()
