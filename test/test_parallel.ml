(* The domain pool and every parallel consumer must be invisible to
   observers: the same bytes come out at every pool size. Unit tests
   cover the pool combinators (including nesting and exceptions);
   properties pin parallel == sequential for the accumulator and
   prime-representative hot paths across domains 1, 2 and 4. *)

let with_domains d f =
  Parallel.set_domains d;
  Fun.protect ~finally:(fun () -> Parallel.set_domains 1) f

let domain_counts = [ 1; 2; 4 ]

(* --- pool combinators ------------------------------------------------- *)

let test_map () =
  List.iter
    (fun d ->
      let pool = Parallel.Pool.create ~domains:d () in
      Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown pool) @@ fun () ->
      let arr = Array.init 37 (fun i -> i) in
      Alcotest.(check (array int))
        (Printf.sprintf "map squares, %d domains" d)
        (Array.map (fun x -> x * x) arr)
        (Parallel.Pool.map pool (fun x -> x * x) arr);
      Alcotest.(check (array int)) "map empty" [||] (Parallel.Pool.map pool (fun x -> x) [||]);
      Alcotest.(check (list int)) "map_list" [ 2; 4; 6 ]
        (Parallel.Pool.map_list pool (fun x -> 2 * x) [ 1; 2; 3 ]))
    domain_counts

let test_reduce () =
  List.iter
    (fun d ->
      let pool = Parallel.Pool.create ~domains:d () in
      Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown pool) @@ fun () ->
      let arr = Array.init 100 (fun i -> i + 1) in
      Alcotest.(check int)
        (Printf.sprintf "reduce sum, %d domains" d)
        5050
        (Parallel.Pool.reduce pool ( + ) 0 arr);
      (* Associative but not commutative: the fixed bracketing must keep
         operands in input order at every pool size. *)
      let words = Array.init 26 (fun i -> String.make 1 (Char.chr (Char.code 'a' + i))) in
      Alcotest.(check string)
        (Printf.sprintf "reduce concat in order, %d domains" d)
        "abcdefghijklmnopqrstuvwxyz"
        (Parallel.Pool.reduce pool ( ^ ) "" words);
      Alcotest.(check int) "reduce empty = id" 42 (Parallel.Pool.reduce pool ( + ) 42 [||]))
    domain_counts

let test_both_and_nesting () =
  List.iter
    (fun d ->
      let pool = Parallel.Pool.create ~domains:d () in
      Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown pool) @@ fun () ->
      let a, b = Parallel.Pool.both pool (fun () -> 1 + 1) (fun () -> "x" ^ "y") in
      Alcotest.(check int) "both left" 2 a;
      Alcotest.(check string) "both right" "xy" b;
      (* Nested fork-join: every task itself fans out on the same pool.
         Work-helping must keep this deadlock-free. *)
      let thunks =
        Array.init 16 (fun i () ->
            Array.fold_left ( + ) 0 (Parallel.Pool.map pool (fun x -> x * i) (Array.init 20 Fun.id)))
      in
      let got = Parallel.Pool.run_all pool thunks in
      Alcotest.(check (array int))
        (Printf.sprintf "nested run_all, %d domains" d)
        (Array.init 16 (fun i -> 190 * i))
        got)
    domain_counts

let test_exceptions () =
  List.iter
    (fun d ->
      let pool = Parallel.Pool.create ~domains:d () in
      Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown pool) @@ fun () ->
      Alcotest.check_raises
        (Printf.sprintf "map propagates, %d domains" d)
        (Failure "boom")
        (fun () ->
          ignore (Parallel.Pool.map pool (fun x -> if x = 13 then failwith "boom" else x) (Array.init 32 Fun.id)));
      Alcotest.check_raises "both propagates right" (Failure "right") (fun () ->
          ignore (Parallel.Pool.both pool (fun () -> 1) (fun () -> failwith "right")));
      (* The pool must stay usable after an exception. *)
      Alcotest.(check int) "pool alive after raise" 10
        (Parallel.Pool.reduce pool ( + ) 0 (Array.init 5 Fun.id)))
    domain_counts

let test_global_pool () =
  Alcotest.(check int) "default sequential" 1 (Parallel.domains ());
  with_domains 3 (fun () ->
      Alcotest.(check int) "configured" 3 (Parallel.domains ());
      Alcotest.(check int) "pool size follows" 3 (Parallel.Pool.size (Parallel.pool ())));
  Alcotest.(check int) "restored" 1 (Parallel.domains ());
  Alcotest.(check int) "pool recreated" 1 (Parallel.Pool.size (Parallel.pool ()))

(* --- parallel == sequential for the ADS hot paths ---------------------- *)

let params =
  lazy (Rsa_acc.setup ~rng:(Drbg.create ~seed:"test-parallel-acc") ~bits:512 ())

(* A fixed pool of genuine prime representatives; lists drawn from it
   contain duplicates, exercising the multiset semantics. *)
let prime_pool =
  lazy (Array.of_list (Prime_rep.to_primes (List.init 12 (Printf.sprintf "test-parallel-p%d"))))

let gen_prime_list =
  let open QCheck2.Gen in
  list_size (int_range 0 10) (int_range 0 11)
  |> map (fun idxs ->
         let pool = Lazy.force prime_pool in
         List.map (fun i -> pool.(i)) idxs)

let prop name ?(count = 20) gen p =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen p)

let across_domains compute check =
  let reference = compute () in
  List.for_all
    (fun d -> with_domains d (fun () -> check reference (compute ())))
    domain_counts

let acc_props =
  [ prop "accumulate == sequential add fold" gen_prime_list (fun xs ->
        let params = Lazy.force params in
        (* Independent reference: the one-at-a-time fold the owner used
           before batching. *)
        let naive =
          List.fold_left (fun ac x -> Rsa_acc.add params ac x) params.Rsa_acc.generator xs
        in
        across_domains
          (fun () -> Rsa_acc.accumulate params xs)
          (fun a b -> Bigint.equal a b && Bigint.equal a naive));
    prop "all_witnesses == naive per-element witnesses" gen_prime_list (fun xs ->
        let params = Lazy.force params in
        let remove_one x xs =
          let rec go = function
            | [] -> []
            | y :: rest -> if Bigint.equal y x then rest else y :: go rest
          in
          go xs
        in
        let naive =
          List.map
            (fun x ->
              ( x,
                List.fold_left
                  (fun ac y -> Rsa_acc.add params ac y)
                  params.Rsa_acc.generator (remove_one x xs) ))
            xs
        in
        across_domains
          (fun () -> Rsa_acc.all_witnesses params xs)
          (fun a b ->
            let eq l1 l2 =
              List.length l1 = List.length l2
              && List.for_all2
                   (fun (x1, w1) (x2, w2) -> Bigint.equal x1 x2 && Bigint.equal w1 w2)
                   l1 l2
            in
            eq a b && eq a naive));
    prop "mem/batch witnesses at every pool size" gen_prime_list (fun xs ->
        let params = Lazy.force params in
        match xs with
        | [] -> true
        | x :: _ ->
          across_domains
            (fun () ->
              ( Rsa_acc.accumulate params xs,
                Rsa_acc.mem_witness params xs x,
                Rsa_acc.batch_witness params xs [ x ] ))
            (fun (ac, w, bw) (ac', w', bw') ->
              Bigint.equal ac ac' && Bigint.equal w w' && Bigint.equal bw bw'
              && Bigint.equal w bw
              && Rsa_acc.verify_mem params ~ac ~x ~witness:w));
    prop "witness tree == rebuild at every pool size" ~count:15 gen_prime_list (fun xs ->
        let params = Lazy.force params in
        match xs with
        | [] -> true
        | x :: _ ->
          let distinct = List.sort_uniq Bigint.compare xs in
          across_domains
            (fun () ->
              (* A fresh maintained index per pool size, fed in two
                 appends with a query in between so the spine recompute,
                 the lazy re-base and the pool-parallel warm_all all run
                 at this domain count. *)
              let wt = Witness_tree.create params in
              let k = List.length xs / 2 in
              let l = List.filteri (fun i _ -> i < k) xs
              and r = List.filteri (fun i _ -> i >= k) xs in
              Witness_tree.append wt l;
              ignore (Witness_tree.witness wt x);
              Witness_tree.append wt r;
              Witness_tree.warm_all wt;
              ( Witness_tree.ac wt,
                (match Witness_tree.witness wt x with Some w -> w | None -> Bigint.zero),
                Witness_tree.batch_witness wt distinct ))
            (fun (ac, w, bw) (ac', w', bw') ->
              Bigint.equal ac ac' && Bigint.equal w w' && Bigint.equal bw bw'
              && Bigint.equal ac (Rsa_acc.accumulate params xs)
              && Bigint.equal w (Rsa_acc.mem_witness params xs x)
              && Bigint.equal bw (Rsa_acc.batch_witness params xs distinct)));
    prop "to_primes == map to_prime (with duplicates)" ~count:15
      QCheck2.Gen.(list_size (int_range 0 8) (int_range 0 1_000_000))
      (fun seeds ->
        (* Fresh-ish strings so some walks actually run; duplicates are
           injected by doubling the list. *)
        let ss = List.map (Printf.sprintf "tp-batch-%d") (seeds @ seeds) in
        let reference = List.map Prime_rep.to_prime ss in
        List.for_all
          (fun d ->
            with_domains d (fun () ->
                List.for_all2 Bigint.equal reference (Prime_rep.to_primes ss)))
          domain_counts)
  ]

(* --- Build/Insert determinism across pool sizes ------------------------ *)

(* The owner's fan-out (record slicing, G1/G2 derivation, per-keyword
   entry jobs) must be invisible: index entries, prime representatives
   and Ac come out bit-identical at every pool size. *)
let build_and_insert () =
  let rng = Drbg.create ~seed:"test-parallel-owner" in
  let keys = Keys.generate ~tdp_bits:512 ~rng () in
  let acc_params = Rsa_acc.setup ~rng ~bits:512 () in
  let owner = Owner.create ~width:6 ~rng ~acc_params ~keys () in
  let records = Gen.uniform_records ~rng ~width:6 40 in
  let built = Owner.build owner records in
  let inserts =
    List.init 10 (fun i -> Slicer_types.record_of_value (Printf.sprintf "ins-%d" i) (i * 5 mod 64))
  in
  let inserted = Owner.insert owner inserts in
  (built, inserted, Owner.current_ac owner)

(* Equal encodings: every group's G1 key, entries and prime, in order,
   and the accumulation value. *)
let shipment_eq (a : Owner.shipment) (b : Owner.shipment) =
  String.equal (Persist.shipment_to_bytes a) (Persist.shipment_to_bytes b)

let test_owner_determinism () =
  let ref_built, ref_inserted, ref_ac = build_and_insert () in
  Alcotest.(check bool) "build produced entries" true (Owner.shipment_entries ref_built <> []);
  List.iter
    (fun d ->
      with_domains d (fun () ->
          let built, inserted, ac = build_and_insert () in
          Alcotest.(check bool)
            (Printf.sprintf "build shipment identical, %d domains" d)
            true (shipment_eq ref_built built);
          Alcotest.(check bool)
            (Printf.sprintf "insert shipment identical, %d domains" d)
            true (shipment_eq ref_inserted inserted);
          Alcotest.(check bool)
            (Printf.sprintf "Ac identical, %d domains" d)
            true (Bigint.equal ref_ac ac)))
    domain_counts

(* --- prime-rep cache consistency --------------------------------------- *)

let test_cache_consistency () =
  let s = "cache-consistency-probe" in
  let first = Prime_rep.to_prime s in
  (* Repeats, batched lookups and parallel batches must all return the
     exact first representative: a cache can never change an answer. *)
  Alcotest.(check bool) "repeat hit equal" true (Bigint.equal first (Prime_rep.to_prime s));
  with_domains 4 (fun () ->
      List.iter
        (fun x -> Alcotest.(check bool) "batched equal" true (Bigint.equal first x))
        (Prime_rep.to_primes [ s; s; s ]));
  Alcotest.(check bool) "is_representative_of" true (Prime_rep.is_representative_of first s);
  let stats = Prime_rep.cache_stats () in
  Alcotest.(check bool) "cache populated" true (stats.Prime_rep.cs_entries > 0);
  Alcotest.(check bool) "hits recorded" true (stats.Prime_rep.cs_hits > 0);
  Alcotest.(check bool) "bounded" true (stats.Prime_rep.cs_entries <= stats.Prime_rep.cs_limit)

let () =
  Alcotest.run "parallel"
    [ ( "pool",
        [ Alcotest.test_case "map" `Quick test_map;
          Alcotest.test_case "reduce" `Quick test_reduce;
          Alcotest.test_case "both and nesting" `Quick test_both_and_nesting;
          Alcotest.test_case "exceptions" `Quick test_exceptions;
          Alcotest.test_case "global pool" `Quick test_global_pool ] );
      ("determinism", acc_props);
      ( "owner determinism",
        [ Alcotest.test_case "Build/Insert across pool sizes" `Quick test_owner_determinism ] );
      ("prime-rep cache", [ Alcotest.test_case "cache consistency" `Quick test_cache_consistency ]) ]
