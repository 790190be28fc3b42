(* The durability layer, bottom-up: the CRC kernel against its check
   value, the WAL's torn-tail discipline under truncation and bit rot
   (qcheck), group-commit under thread contention, atomic snapshot
   generations with fallback, and the Store-level crash-consistency
   property — corrupt the directory any way you like, recovery yields
   some prefix of the applied events and never an exception. *)

let prop name ?(count = 100) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* --- scratch directories ----------------------------------------------------- *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "slicer-store-%d-%d" (Unix.getpid ()) !n)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun name -> rm_rf (Filename.concat path name)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let file_size path = (Unix.stat path).Unix.st_size

let truncate_file path len =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.ftruncate fd len)

let flip_byte path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let size = (Unix.fstat fd).Unix.st_size in
      if size > 0 then begin
        let off = off mod size in
        ignore (Unix.lseek fd off Unix.SEEK_SET);
        let b = Bytes.create 1 in
        ignore (Unix.read fd b 0 1);
        Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor (1 lsl (off mod 8))));
        ignore (Unix.lseek fd off Unix.SEEK_SET);
        ignore (Unix.write fd b 0 1)
      end)

let newest_snap dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun name ->
         if String.length name > 9
            && String.sub name 0 5 = "snap-"
            && Filename.check_suffix name ".bin"
         then
           Option.map
             (fun seq -> (seq, Filename.concat dir name))
             (int_of_string_opt (String.sub name 5 (String.length name - 9)))
         else None)
  |> List.sort (fun (a, _) (b, _) -> compare b a)
  |> function
  | (_, path) :: _ -> Some path
  | [] -> None

(* --- crc32 ------------------------------------------------------------------- *)

let test_crc_check_value () =
  Alcotest.(check int) "standard check value" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.string "");
  Alcotest.(check bool) "order matters" true (Crc32.string "ab" <> Crc32.string "ba")

let crc_props =
  [ prop "chunked update agrees with one-shot" ~count:200
      QCheck2.Gen.(pair (string_size (int_range 0 100)) nat)
      (fun (s, cut) ->
        let n = String.length s in
        let cut = if n = 0 then 0 else cut mod (n + 1) in
        let chunked = Crc32.update (Crc32.update 0 s 0 cut) s cut (n - cut) in
        chunked = Crc32.string s);
    (* The byte-at-a-time loop [Crc32] folds eight bytes at a time: any
       slice, seeded with the CRC of the bytes before a split point,
       must agree with it. *)
    prop "eight bytes per step agree with the byte-at-a-time reference" ~count:300
      QCheck2.Gen.(triple (string_size (int_range 0 200)) nat (pair nat nat))
      (fun (s, pos, (len, cut)) ->
        let table =
          Array.init 256 (fun n ->
              let c = ref n in
              for _ = 0 to 7 do
                c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
              done;
              !c)
        in
        let reference crc pos len =
          let c = ref (crc lxor 0xFFFFFFFF) in
          for i = pos to pos + len - 1 do
            c := table.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
          done;
          !c lxor 0xFFFFFFFF
        in
        let n = String.length s in
        let pos = pos mod (n + 1) in
        let len = len mod (n - pos + 1) in
        let cut = cut mod (len + 1) in
        let seed = reference 0 pos cut in
        Crc32.update 0 s pos len = reference 0 pos len
        && Crc32.update seed s (pos + cut) (len - cut) = reference seed (pos + cut) (len - cut)) ]

(* A streamed encoding's pieces, emitted once or twice, concatenate to
   its string form, and a CRC run piece by piece over them equals the
   one-shot CRC: the WAL's first pass over a payload is its CRC. The
   [Slice] leaves emit views at an offset into a larger string, as a
   shipment's packed records do. *)
type tree = Leaf of string | Slice of string * int | Node of tree list

let gen_tree =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [ map (fun s -> Leaf s) (string_size (int_range 0 40));
        map2 (fun s cut -> Slice (s, cut mod (String.length s + 1)))
          (string_size (int_range 0 40)) nat ]
  in
  sized_size (int_range 0 64)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else oneof [ leaf; map (fun l -> Node l) (list_size (int_range 0 4) (self (n / 2))) ])

let rec sized_of = function
  | Leaf s -> Bytesutil.sized_string s
  | Slice (s, off) ->
    let len = String.length s - off in
    { Bytesutil.size = len; emit = (fun sink -> sink s off len) }
  | Node l -> Bytesutil.sized_concat (List.map sized_of l)

let rec reference = function
  | Leaf s -> s
  | Slice (s, off) -> String.sub s off (String.length s - off)
  | Node l -> Bytesutil.concat (List.map reference l)

let streamed_props =
  [ prop "streamed pieces concatenate and checksum piecewise" ~count:300 gen_tree (fun t ->
        let sized = sized_of t in
        let pieces () =
          let acc = ref [] in
          sized.Bytesutil.emit (fun s off len -> acc := String.sub s off len :: !acc);
          List.rev !acc
        in
        let once = pieces () in
        let whole = Bytesutil.sized_to_string sized in
        let crc = ref 0 in
        sized.Bytesutil.emit (fun s off len -> crc := Crc32.update !crc s off len);
        pieces () = once
        && String.concat "" once = whole
        && whole = reference t
        && sized.Bytesutil.size = String.length whole
        && !crc = Crc32.string whole) ]

(* --- wal --------------------------------------------------------------------- *)

let wal_events =
  [ (1, ""); (2, "register:alice"); (3, String.make 300 '\x7f'); (4, "bytes \x00\xff\x01") ]

let append_all wal = List.iter (fun (tag, p) -> ignore (Wal.append wal ~tag p)) wal_events

let check_events msg expected (actual : Wal.event list) =
  Alcotest.(check (list (triple int int string)))
    msg
    (List.mapi (fun i (tag, p) -> (i + 1, tag, p)) expected)
    (List.map (fun e -> (e.Wal.ev_seq, e.Wal.ev_tag, e.Wal.ev_payload)) actual)

let test_wal_roundtrip () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "wal.log" in
      let wal, events, dropped = Wal.open_ ~path ~fsync:true in
      Alcotest.(check bool) "fresh log is empty" true (events = [] && not dropped);
      append_all wal;
      Wal.sync wal;
      Alcotest.(check int) "everything synced" (Wal.size wal) (Wal.last_synced wal);
      Wal.close wal;
      let wal2, events, dropped = Wal.open_ ~path ~fsync:true in
      Alcotest.(check bool) "clean tail" false dropped;
      check_events "records survive reopen" wal_events events;
      (* Appends continue the sequence, not restart it. *)
      let seq = Wal.append wal2 ~tag:9 "more" in
      Alcotest.(check int) "sequence continues" (List.length wal_events + 1) seq;
      Wal.close wal2)

(* Records stream through the log's 64 KiB scratch: pieces that fill
   it exactly, overflow it, or are larger than it (written from where
   they lie) must give the same bytes as the layout written out whole. *)
let test_wal_scratch_boundaries () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "wal.log" in
      let wal, _, _ = Wal.open_ ~path ~fsync:false in
      let scratch = 64 * 1024 in
      let text n = String.init n (fun i -> Char.chr ((i * 31) land 0xff)) in
      let payloads =
        [ Bytesutil.sized_string "";
          Bytesutil.sized_string (text (scratch - 17));
          Bytesutil.sized_string (text scratch);
          Bytesutil.sized_concat
            [ Bytesutil.sized_string (text 10); Bytesutil.sized_string (text (3 * scratch)) ];
          Bytesutil.sized_concat
            (List.init 9000 (fun i -> Bytesutil.sized_string (text (i mod 40)))) ]
      in
      List.iteri (fun i p -> ignore (Wal.append_sized wal ~tag:(i + 1) p)) payloads;
      Wal.close wal;
      let record seq tag payload =
        let body = String.concat "" [ Bytesutil.be64 seq; String.make 1 (Char.chr tag); payload ] in
        String.concat ""
          [ Bytesutil.be32 (String.length body); Bytesutil.be32 (Crc32.string body); body ]
      in
      let expected =
        String.concat ""
          (List.mapi (fun i p -> record (i + 1) (i + 1) (Bytesutil.sized_to_string p)) payloads)
      in
      let file = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check int) "log size" (String.length expected) (String.length file);
      Alcotest.(check bool) "log bytes" true (file = expected))

let test_wal_reset () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "wal.log" in
      let wal, _, _ = Wal.open_ ~path ~fsync:false in
      append_all wal;
      Wal.reset wal ~next_seq:11;
      Alcotest.(check int) "log truncated" 0 (Wal.size wal);
      ignore (Wal.append wal ~tag:5 "after");
      Wal.close wal;
      let wal2, events, dropped = Wal.open_ ~path ~fsync:false in
      Wal.close wal2;
      Alcotest.(check bool) "clean" false dropped;
      Alcotest.(check (list (triple int int string)))
        "only post-reset records, renumbered"
        [ (11, 5, "after") ]
        (List.map (fun e -> (e.Wal.ev_seq, e.Wal.ev_tag, e.Wal.ev_payload)) events))

let test_wal_group_commit () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "wal.log" in
      let wal, _, _ = Wal.open_ ~path ~fsync:true in
      let threads = 4 and per_thread = 20 in
      let errors = Array.make threads None in
      let worker i () =
        try
          for j = 0 to per_thread - 1 do
            ignore (Wal.append wal ~tag:1 (Printf.sprintf "t%d-%d" i j));
            Wal.sync wal
          done
        with exn -> errors.(i) <- Some (Printexc.to_string exn)
      in
      let ts = List.init threads (fun i -> Thread.create (worker i) ()) in
      List.iter Thread.join ts;
      Array.iteri
        (fun i e -> Option.iter (Alcotest.failf "thread %d: %s" i) e)
        errors;
      Alcotest.(check int) "every returned sync covered its bytes" (Wal.size wal)
        (Wal.last_synced wal);
      Wal.close wal;
      let wal2, events, dropped = Wal.open_ ~path ~fsync:true in
      Wal.close wal2;
      Alcotest.(check bool) "clean" false dropped;
      Alcotest.(check int) "all records present" (threads * per_thread) (List.length events);
      List.iteri
        (fun i e -> Alcotest.(check int) "gapless sequence" (i + 1) e.Wal.ev_seq)
        events)

let wal_corruption_props =
  let build dir =
    Unix.mkdir dir 0o755;
    let path = Filename.concat dir "wal.log" in
    let wal, _, _ = Wal.open_ ~path ~fsync:false in
    append_all wal;
    Wal.close wal;
    path
  in
  let is_prefix events =
    (* Recovered records must be the first k appended, in order. *)
    List.for_all2
      (fun e (tag, p) -> e.Wal.ev_tag = tag && e.Wal.ev_payload = p)
      events
      (List.filteri (fun i _ -> i < List.length events) wal_events)
    && List.for_all (fun e -> e.Wal.ev_seq <= List.length wal_events) events
  in
  [ prop "truncation at any byte yields a clean prefix" ~count:60 QCheck2.Gen.nat
      (fun cut ->
        with_dir (fun dir ->
            let path = build dir in
            let size = file_size path in
            let cut = cut mod (size + 1) in
            truncate_file path cut;
            let wal, events, dropped = Wal.open_ ~path ~fsync:false in
            Wal.close wal;
            is_prefix events
            && (cut = size || List.length events < List.length wal_events || not dropped)
            (* the torn tail is physically gone: reopening again is clean *)
            &&
            let wal2, events2, dropped2 = Wal.open_ ~path ~fsync:false in
            Wal.close wal2;
            events2 = events && not dropped2));
    prop "a flipped byte never parses past the damage" ~count:60 QCheck2.Gen.nat
      (fun off ->
        with_dir (fun dir ->
            let path = build dir in
            flip_byte path off;
            match Wal.open_ ~path ~fsync:false with
            | wal, events, _ ->
              Wal.close wal;
              is_prefix events && List.length events < List.length wal_events
            | exception exn ->
              QCheck2.Test.fail_reportf "open raised %s" (Printexc.to_string exn))) ]

(* --- snapfile ---------------------------------------------------------------- *)

let test_snapfile_generations () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      Alcotest.(check bool) "empty dir" true (Snapfile.load_newest ~dir = None);
      Snapfile.write ~dir ~seq:3 ~fsync:true "state at 3";
      Snapfile.write ~dir ~seq:7 ~fsync:true "state at 7";
      Snapfile.write ~dir ~seq:12 ~fsync:true "state at 12";
      Alcotest.(check (option (pair int string)))
        "newest wins" (Some (12, "state at 12")) (Snapfile.load_newest ~dir);
      (* Only two generations survive the prune. *)
      let snaps =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun n -> Filename.check_suffix n ".bin")
      in
      Alcotest.(check int) "pruned to two generations" 2 (List.length snaps);
      (* A corrupt newest generation falls back to the previous one. *)
      (match newest_snap dir with
       | Some path -> flip_byte path 9
       | None -> Alcotest.fail "no snapshot on disk");
      Alcotest.(check (option (pair int string)))
        "fallback to the older generation" (Some (7, "state at 7"))
        (Snapfile.load_newest ~dir);
      Snapfile.wipe ~dir;
      Alcotest.(check bool) "wiped" true (Snapfile.load_newest ~dir = None))

(* A snapshot file's bytes for a fixed payload, hashed on the commit
   before the header and payload were written apart: the layout and
   its CRC must not move. *)
let test_snapfile_golden () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let payload = String.init 100_000 (fun i -> Char.chr (((i * 131) + (i / 256)) land 0xff)) in
      Snapfile.write ~dir ~seq:7 ~fsync:false payload;
      let file =
        In_channel.with_open_bin (Filename.concat dir "snap-7.bin") In_channel.input_all
      in
      Alcotest.(check int) "file size" 100_021 (String.length file);
      Alcotest.(check string) "file sha-256"
        "5e8d91557279b4a87b87943ea7815c736b59dda8b67e38c72d22f6d06e5fa226"
        (Sha256.digest_hex file);
      Alcotest.(check (option (pair int string)))
        "loads back" (Some (7, payload)) (Snapfile.load_newest ~dir))

(* --- store: recovery semantics ----------------------------------------------- *)

let ev_payload i = Printf.sprintf "ev:%d" i
let state_payload seq = Printf.sprintf "state:%d" seq

let store_cfg ?(snapshot_bytes = max_int) dir = { Store.dir; fsync = false; snapshot_bytes }

(* Apply [n] events, checkpointing after those listed in [checkpoints].
   Event seq [i] carries payload "ev:i"; a checkpoint at seq [s] carries
   "state:s" — so any recovered (snapshot, events) pair self-describes
   which prefix of history it represents. *)
let apply_script dir n checkpoints =
  let store, _ = Store.open_ (store_cfg dir) in
  for i = 1 to n do
    ignore (Store.append store ~tag:1 (ev_payload i));
    if List.mem i checkpoints then Store.checkpoint store (state_payload (Store.last_seq store))
  done;
  Store.sync store;
  Store.close store

(* The crash-consistency invariant: whatever recovery returns must be
   the state after the first [k] events, for some k ≤ applied. *)
let check_prefix ~applied (rc : Store.recovery) =
  let base =
    match rc.Store.rc_snapshot with
    | None -> 0
    | Some (seq, payload) ->
      if payload <> state_payload seq then
        QCheck2.Test.fail_reportf "snapshot %d carries %S" seq payload;
      if seq > applied then QCheck2.Test.fail_reportf "snapshot %d beyond history" seq;
      seq
  in
  List.iteri
    (fun i e ->
      if e.Store.ev_seq <> base + i + 1 then
        QCheck2.Test.fail_reportf "gap: event %d after base %d" e.Store.ev_seq base;
      if e.Store.ev_payload <> ev_payload e.Store.ev_seq then
        QCheck2.Test.fail_reportf "event %d carries %S" e.Store.ev_seq e.Store.ev_payload)
    rc.Store.rc_events;
  let recovered =
    match List.rev rc.Store.rc_events with e :: _ -> e.Store.ev_seq | [] -> base
  in
  if recovered > applied then
    QCheck2.Test.fail_reportf "recovered %d of %d applied" recovered applied;
  recovered

let test_store_roundtrip () =
  with_dir (fun dir ->
      let store, rc = Store.open_ (store_cfg dir) in
      Alcotest.(check bool) "fresh dir is empty" true (Store.is_empty store);
      Alcotest.(check bool) "no snapshot" true (rc.Store.rc_snapshot = None);
      Store.close store;
      apply_script dir 5 [ 3 ];
      let store, rc = Store.open_ (store_cfg dir) in
      Alcotest.(check bool) "not empty now" false (Store.is_empty store);
      Alcotest.(check (option (pair int string)))
        "snapshot at the checkpoint" (Some (3, state_payload 3)) rc.Store.rc_snapshot;
      Alcotest.(check (list int)) "tail above the snapshot" [ 4; 5 ]
        (List.map (fun e -> e.Store.ev_seq) rc.Store.rc_events);
      Alcotest.(check bool) "nothing dropped" false rc.Store.rc_dropped_tail;
      Alcotest.(check int) "last_seq" 5 (Store.last_seq store);
      (* Appends after recovery continue the history. *)
      Alcotest.(check int) "next seq continues" 6 (Store.append store ~tag:1 (ev_payload 6));
      Store.close store)

let test_store_snapshot_threshold () =
  with_dir (fun dir ->
      let store, _ = Store.open_ (store_cfg ~snapshot_bytes:64 dir) in
      Alcotest.(check bool) "empty log below threshold" false (Store.should_snapshot store);
      while not (Store.should_snapshot store) do
        ignore (Store.append store ~tag:1 "0123456789abcdef")
      done;
      Alcotest.(check bool) "threshold reached" true (Store.wal_bytes store >= 64);
      Store.checkpoint store "state";
      Alcotest.(check int) "checkpoint drains the log" 0 (Store.wal_bytes store);
      Alcotest.(check bool) "below threshold again" false (Store.should_snapshot store);
      Store.close store)

let test_store_crash_between_snapshot_and_truncate () =
  (* The dangerous window in [checkpoint]: snapshot published, WAL not
     yet reset. Recovery must skip the already-materialized records. *)
  with_dir (fun dir ->
      apply_script dir 5 [];
      Snapfile.write ~dir ~seq:3 ~fsync:false (state_payload 3);
      let store, rc = Store.open_ (store_cfg dir) in
      Store.close store;
      Alcotest.(check (option (pair int string)))
        "snapshot loaded" (Some (3, state_payload 3)) rc.Store.rc_snapshot;
      Alcotest.(check (list int)) "only the uncovered tail replays" [ 4; 5 ]
        (List.map (fun e -> e.Store.ev_seq) rc.Store.rc_events))

let test_store_corrupt_snapshot_falls_back () =
  (* Newest snapshot rots: recovery falls back a generation — and must
     then drop the WAL tail wholesale, because those records extend the
     *corrupt* snapshot's epoch, not the older base. *)
  with_dir (fun dir ->
      apply_script dir 7 [ 3; 5 ];
      (match newest_snap dir with
       | Some path -> flip_byte path 11
       | None -> Alcotest.fail "no snapshot written");
      let store, rc = Store.open_ (store_cfg dir) in
      Alcotest.(check (option (pair int string)))
        "older generation restored" (Some (3, state_payload 3)) rc.Store.rc_snapshot;
      Alcotest.(check (list int)) "out-of-epoch tail dropped, not misapplied" []
        (List.map (fun e -> e.Store.ev_seq) rc.Store.rc_events);
      Alcotest.(check bool) "drop was reported" true rc.Store.rc_dropped_tail;
      Alcotest.(check int) "history resumes after the snapshot" 3 (Store.last_seq store);
      Store.close store)

let store_crash_props =
  let gen =
    QCheck2.Gen.(
      pair
        (pair (int_range 1 25) (list_size (int_range 0 3) (int_range 1 25)))
        (pair (int_range 0 3) nat))
  in
  [ prop "recovery after arbitrary corruption is a prefix, never an exception" ~count:80 gen
      (fun ((n, checkpoints), (mode, off)) ->
        with_dir (fun dir ->
            apply_script dir n (List.filter (fun c -> c <= n) checkpoints);
            let wal = Filename.concat dir "wal.log" in
            (match mode with
             | 0 -> truncate_file wal (off mod (file_size wal + 1))
             | 1 -> flip_byte wal off
             | 2 -> Option.iter (fun p -> flip_byte p off) (newest_snap dir)
             | _ -> (* clean restart *) ());
            match Store.open_ (store_cfg dir) with
            | store, rc ->
              Store.close store;
              let recovered = check_prefix ~applied:n rc in
              (* A clean restart loses nothing at all. *)
              mode <> 3 || recovered = n
            | exception exn ->
              QCheck2.Test.fail_reportf "recovery raised %s" (Printexc.to_string exn)));
    prop "recovery is idempotent: a second open recovers the same state" ~count:40
      (QCheck2.Gen.pair (QCheck2.Gen.int_range 1 15) QCheck2.Gen.nat)
      (fun (n, off) ->
        with_dir (fun dir ->
            apply_script dir n [];
            let wal = Filename.concat dir "wal.log" in
            truncate_file wal (off mod (file_size wal + 1));
            let store1, rc1 = Store.open_ (store_cfg dir) in
            Store.close store1;
            let store2, rc2 = Store.open_ (store_cfg dir) in
            Store.close store2;
            rc1.Store.rc_events = rc2.Store.rc_events
            && rc1.Store.rc_snapshot = rc2.Store.rc_snapshot
            && not rc2.Store.rc_dropped_tail)) ]

(* --- the journal path ---------------------------------------------------------- *)

(* Journaling a Build streams the request's encoding into the log
   through the log's 64 KiB scratch, so the append allocates no buffer
   of the request's size. A buffer that large goes straight to the major
   heap, so the bound is on words allocated there directly: major words
   less those promoted from the minor heap, which count the short-lived
   encoding tree only when a minor collection happens to fall inside
   the append. The request has perfbench's shape: 1,000 width-8
   records, 9,000 entries, 485,694 bytes (60,712 words). This case
   reads at most 914 words (the append histogram's first shard).
   Encoding the request and appending the string, as the journal did
   before, read 191,588: the request, the WAL's body and its record,
   and the trapdoor state's string. *)
let journal_major_words_bound = 10_000

let test_journal_allocation () =
  let rng = Drbg.create ~seed:"journal-alloc" in
  let keys = Keys.generate ~tdp_bits:512 ~rng () in
  let acc_params = Rsa_acc.setup ~rng ~bits:512 () in
  let owner = Owner.create ~width:8 ~rng ~acc_params ~keys () in
  let shipment = Owner.build owner (Gen.uniform_records ~rng ~width:8 1000) in
  let user = Keys.for_user keys in
  let req =
    Net.Wire.Build
      { client = "owner"; request_id = "owner#1"; width = 8; payment = 1000; acc = acc_params;
        tdp_n = keys.Keys.tdp_public.Rsa_tdp.pn; tdp_e = keys.Keys.tdp_public.Rsa_tdp.e;
        user_k = user.Keys.u_k; user_k_r = user.Keys.u_k_r; shipment;
        trapdoor = Owner.export_trapdoor_state owner; trace = None }
  in
  with_dir (fun dir ->
      let store, _ = Store.open_ (store_cfg dir) in
      let direct () =
        let st = Gc.quick_stat () in
        st.Gc.major_words -. st.Gc.promoted_words
      in
      Gc.full_major ();
      let before = direct () in
      ignore (Store.append_sized store ~tag:2 (Net.Wire.request_sized req));
      let words = int_of_float (direct () -. before) in
      Store.close store;
      let store, rc = Store.open_ (store_cfg dir) in
      Store.close store;
      (match rc.Store.rc_events with
       | [ e ] ->
         Alcotest.(check bool) "the record is the request's encoding" true
           (e.Store.ev_tag = 2 && e.Store.ev_payload = Net.Wire.encode_request req)
       | evs -> Alcotest.failf "%d records recovered" (List.length evs));
      if words > journal_major_words_bound then
        Alcotest.failf "journaling the Build allocated %d words in the major heap (bound %d)" words
          journal_major_words_bound)

let () =
  Alcotest.run "store"
    [ ( "crc32",
        (Alcotest.test_case "check value" `Quick test_crc_check_value :: crc_props)
        @ streamed_props );
      ( "wal",
        [ Alcotest.test_case "append, sync, reopen" `Quick test_wal_roundtrip;
          Alcotest.test_case "records across the scratch's edges" `Quick
            test_wal_scratch_boundaries;
          Alcotest.test_case "reset renumbers" `Quick test_wal_reset;
          Alcotest.test_case "group commit under contention" `Quick test_wal_group_commit ]
        @ wal_corruption_props );
      ( "snapshots",
        [ Alcotest.test_case "generations and fallback" `Quick test_snapfile_generations;
          Alcotest.test_case "file bytes golden" `Quick test_snapfile_golden ] );
      ( "journal",
        [ Alcotest.test_case "a journaled Build is never copied whole" `Quick
            test_journal_allocation ] );
      ( "recovery",
        [ Alcotest.test_case "snapshot + tail roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "snapshot threshold" `Quick test_store_snapshot_threshold;
          Alcotest.test_case "crash between snapshot and truncate" `Quick
            test_store_crash_between_snapshot_and_truncate;
          Alcotest.test_case "corrupt snapshot falls back a generation" `Quick
            test_store_corrupt_snapshot_falls_back ]
        @ store_crash_props ) ]
