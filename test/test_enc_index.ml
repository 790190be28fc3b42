(* The compact open-addressing encrypted index: exact lookup semantics,
   collision-free insertion, growth across the load-factor boundary, and
   honest size accounting. *)

let label i = String.sub (Sha256.digest (Printf.sprintf "label-%d" i)) 0 16
let payload i = String.sub (Sha256.digest (Printf.sprintf "payload-%d" i)) 0 16

let test_put_find () =
  let t = Enc_index.create () in
  Alcotest.(check (option string)) "empty" None (Enc_index.find t (label 0));
  Enc_index.put t ~l:(label 0) ~d:(payload 0);
  Enc_index.put t ~l:(label 1) ~d:(payload 1);
  Alcotest.(check (option string)) "hit 0" (Some (payload 0)) (Enc_index.find t (label 0));
  Alcotest.(check (option string)) "hit 1" (Some (payload 1)) (Enc_index.find t (label 1));
  Alcotest.(check (option string)) "miss" None (Enc_index.find t (label 2));
  Alcotest.(check int) "count" 2 (Enc_index.entry_count t)

let test_duplicate_raises () =
  let t = Enc_index.create () in
  Enc_index.put t ~l:(label 7) ~d:(payload 7);
  Alcotest.check_raises "occupied" (Invalid_argument "Enc_index.put: position already occupied")
    (fun () -> Enc_index.put t ~l:(label 7) ~d:(payload 8))

let test_size_checks () =
  let t = Enc_index.create () in
  Alcotest.check_raises "short label" (Invalid_argument "Enc_index.put: position must be 16 bytes")
    (fun () -> Enc_index.put t ~l:"short" ~d:(payload 0));
  Alcotest.check_raises "long payload" (Invalid_argument "Enc_index.put: payload must be 16 bytes")
    (fun () -> Enc_index.put t ~l:(label 0) ~d:(String.make 17 'x'));
  Alcotest.(check (option string)) "odd-length find is a miss" None (Enc_index.find t "x")

(* 5000 entries forces several doublings past the initial 1024-slot
   arena; every key must survive each rehash. *)
let test_growth () =
  let t = Enc_index.create () in
  let n = 5000 in
  for i = 0 to n - 1 do
    Enc_index.put t ~l:(label i) ~d:(payload i)
  done;
  Alcotest.(check int) "count" n (Enc_index.entry_count t);
  for i = 0 to n - 1 do
    match Enc_index.find t (label i) with
    | Some d when String.equal d (payload i) -> ()
    | Some _ -> Alcotest.fail (Printf.sprintf "wrong payload for %d" i)
    | None -> Alcotest.fail (Printf.sprintf "lost entry %d after growth" i)
  done;
  Alcotest.(check (option string)) "still miss" None (Enc_index.find t (label n))

let test_size_bytes () =
  let t = Enc_index.create () in
  Alcotest.(check int) "empty" 0 (Enc_index.size_bytes t);
  for i = 0 to 99 do
    Enc_index.put t ~l:(label i) ~d:(payload i)
  done;
  (* Exact stored bytes: 16-byte label + 16-byte payload per entry. *)
  Alcotest.(check int) "stored" (100 * 32) (Enc_index.size_bytes t);
  Alcotest.(check bool) "arena covers stored bytes" true
    (Enc_index.capacity_bytes t >= Enc_index.size_bytes t)

let test_iter () =
  let t = Enc_index.create () in
  let n = 300 in
  for i = 0 to n - 1 do
    Enc_index.put t ~l:(label i) ~d:(payload i)
  done;
  let seen = Hashtbl.create n in
  Enc_index.iter
    (fun l d ->
      Alcotest.(check int) "label len" 16 (String.length l);
      Alcotest.(check int) "payload len" 16 (String.length d);
      if Hashtbl.mem seen l then Alcotest.fail "iter visited a label twice";
      Hashtbl.replace seen l d)
    t;
  Alcotest.(check int) "iter visits every entry" n (Hashtbl.length seen);
  for i = 0 to n - 1 do
    match Hashtbl.find_opt seen (label i) with
    | Some d when String.equal d (payload i) -> ()
    | _ -> Alcotest.fail "iter payload mismatch"
  done

(* Entries [lo, hi) as packed [l ‖ d] records. *)
let records lo hi = String.concat "" (List.init (hi - lo) (fun k -> label (lo + k) ^ payload (lo + k)))

(* The latest install's occupancy marks move with their slots when the
   arena doubles, and the next install makes them history. *)
let test_latest_marks_survive_growth () =
  let t = Enc_index.create () in
  let check_marks ~latest:(lo, hi) n =
    for i = 0 to n - 1 do
      Alcotest.(check (option string)) "found" (Some (payload i)) (Enc_index.find t (label i));
      Alcotest.(check (option string)) "before the latest install"
        (if lo <= i && i < hi then None else Some (payload i))
        (Enc_index.find_before_latest t (label i))
    done
  in
  Enc_index.install t [ records 0 700 ];
  let arena = Enc_index.capacity_bytes t in
  (* 800 entries exceed the 1024-slot arena's 3/4 load bound. *)
  Enc_index.install t [ records 700 750; ""; records 750 800 ];
  Alcotest.(check int) "the second install doubled the arena" (2 * arena)
    (Enc_index.capacity_bytes t);
  Alcotest.(check int) "count" 800 (Enc_index.entry_count t);
  check_marks ~latest:(700, 800) 800;
  (* Single puts past 1,536 entries double the arena again while the
     second install's marks are live. *)
  for i = 800 to 1599 do
    Enc_index.put t ~l:(label i) ~d:(payload i)
  done;
  Alcotest.(check int) "the puts doubled the arena" (4 * arena) (Enc_index.capacity_bytes t);
  check_marks ~latest:(700, 800) 1600;
  Enc_index.install t [ records 1600 1601 ];
  check_marks ~latest:(1600, 1601) 1601;
  Alcotest.check_raises "a partial record"
    (Invalid_argument "Enc_index.install: records must be whole 32-byte l ‖ d records")
    (fun () -> Enc_index.install t [ String.make 31 'x' ]);
  Alcotest.check_raises "an occupied position"
    (Invalid_argument "Enc_index.install: position already occupied")
    (fun () -> Enc_index.install t [ records 5 6 ])

(* An install refused on a position the index holds, or on one the
   shipment holds twice, is refused before anything changes: the count,
   every entry and the latest marks stay as the last install left them,
   the arena is not resized, and a well-formed retry installs. *)
let test_refused_install_changes_nothing () =
  let t = Enc_index.create () in
  Enc_index.install t [ records 0 600 ];
  Enc_index.install t [ records 600 700 ];
  let arena = Enc_index.capacity_bytes t in
  let unchanged what =
    Alcotest.(check int) (what ^ ": count") 700 (Enc_index.entry_count t);
    Alcotest.(check int) (what ^ ": arena") arena (Enc_index.capacity_bytes t);
    for i = 0 to 899 do
      Alcotest.(check (option string)) (what ^ ": found")
        (if i < 700 then Some (payload i) else None) (Enc_index.find t (label i));
      Alcotest.(check (option string)) (what ^ ": before the latest install")
        (if i < 600 then Some (payload i) else None) (Enc_index.find_before_latest t (label i))
    done
  in
  (* 200 fresh records would grow the arena; the last one is held. *)
  Alcotest.check_raises "a held position"
    (Invalid_argument "Enc_index.install: position already occupied")
    (fun () -> Enc_index.install t [ records 700 899; records 650 651 ]);
  unchanged "after a held position";
  Alcotest.check_raises "a repeated position"
    (Invalid_argument "Enc_index.install: position repeated in the shipment")
    (fun () -> Enc_index.install t [ records 700 800; records 750 751; records 800 899 ]);
  unchanged "after a repeated position";
  Enc_index.install t [ records 700 800 ];
  Alcotest.(check int) "the retry installed" 800 (Enc_index.entry_count t);
  for i = 0 to 799 do
    Alcotest.(check (option string)) "the retry's marks are the latest"
      (if i < 700 then Some (payload i) else None) (Enc_index.find_before_latest t (label i))
  done

(* A Stale_results cloud answers from the index before the last
   shipment, even when that shipment doubled the arena: every query
   returns exactly the Build's records. *)
let test_stale_cloud_after_growth () =
  let width = 6 in
  let rng = Drbg.create ~seed:"stale-growth" in
  let first = Gen.uniform_records ~rng ~width 60 in
  let second =
    List.map (fun r -> { r with Slicer_types.id = "S" ^ r.Slicer_types.id })
      (Gen.uniform_records ~rng ~width 60)
  in
  let s = Protocol.setup ~width ~seed:"stale-growth" first in
  let arena () = Obs.Gauge.value (Obs.gauge "slicer_cloud_index_bytes") in
  let before = arena () in
  Protocol.insert s second;
  Alcotest.(check bool) "the insert grew the arena" true (arena () > before);
  let cloud = Protocol.cloud s and user = Protocol.user s in
  let ids () =
    List.concat_map
      (fun query ->
        let claims = Cloud.search cloud (User.gen_tokens ~rng:(Protocol.rng s) user query) in
        User.decrypt_results user
          (List.concat_map (fun (c : Slicer_contract.claim) -> c.Slicer_contract.results) claims))
      Slicer_types.[ query 32 Lt; query 32 Eq; query 32 Gt ]
    |> List.sort String.compare
  in
  let ids_of records = List.sort String.compare (List.map (fun r -> r.Slicer_types.id) records) in
  Alcotest.(check (list string)) "honest: both shipments" (ids_of (first @ second)) (ids ());
  Cloud.set_behavior cloud Cloud.Stale_results;
  Alcotest.(check (list string)) "stale: exactly the Build's records" (ids_of first) (ids ())

let () =
  Alcotest.run "enc_index"
    [ ( "enc_index",
        [ Alcotest.test_case "put/find" `Quick test_put_find;
          Alcotest.test_case "duplicate raises" `Quick test_duplicate_raises;
          Alcotest.test_case "size checks" `Quick test_size_checks;
          Alcotest.test_case "growth" `Quick test_growth;
          Alcotest.test_case "size_bytes" `Quick test_size_bytes;
          Alcotest.test_case "iter" `Quick test_iter;
          Alcotest.test_case "latest marks survive growth" `Quick test_latest_marks_survive_growth;
          Alcotest.test_case "a refused install changes nothing" `Quick
            test_refused_install_changes_nothing;
          Alcotest.test_case "stale cloud after growth" `Quick test_stale_cloud_after_growth ] ) ]
