(* Durability benchmarks: what the WAL's fsync barrier costs, how
   recovery time scales with the log it has to replay, and a
   kill+recover smoke run through the full service — Build, settled
   searches, a torn WAL tail, then [Net.Service.recover] with its
   on-chain accumulator check, and a second recovery from the snapshot
   the first one wrote, which must resume the chain at the same head.

   The append-latency guard at the end is the regression tripwire the
   smoke alias runs: with fsync off the WAL is just buffered writes
   plus a CRC, so a p99 above [append_guard_s] means someone put real
   work on the journaling hot path. *)

open Bench_common

let append_guard_s = 0.050

let params scale =
  (* events per throughput run, payload bytes, WAL sizes for recovery *)
  if String.length scale.label >= 5 && String.sub scale.label 0 5 = "smoke" then
    (2_000, 256, [ 500; 2_000; 8_000 ])
  else if scale.label = "full" then (50_000, 256, [ 5_000; 20_000; 80_000; 320_000 ])
  else (10_000, 256, [ 1_000; 4_000; 16_000; 64_000 ])

let fresh_dir =
  let n = ref 0 in
  fun () ->
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "slicer-bench-recover-%d-%d" (Unix.getpid ()) (incr n; !n))

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun name -> rm_rf (Filename.concat path name)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let percentile = Obs.Summary.percentile

(* --- WAL append+sync throughput, fsync on vs off --------------------------- *)

let wal_throughput ~events ~payload_bytes ~fsync =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let store, _ = Store.open_ { Store.dir; fsync; snapshot_bytes = max_int } in
  Fun.protect ~finally:(fun () -> Store.close store) @@ fun () ->
  let payload = String.make payload_bytes 'x' in
  let lat = Array.make events 0. in
  let t0 = Unix.gettimeofday () in
  for i = 0 to events - 1 do
    let s0 = Obs.Clock.now_ns () in
    ignore (Store.append store ~tag:4 payload);
    Store.sync store;
    lat.(i) <- float_of_int (Obs.Clock.now_ns () - s0) /. 1e9
  done;
  let wall = Unix.gettimeofday () -. t0 in
  Array.sort compare lat;
  let series = if fsync then "wal_fsync" else "wal_nofsync" in
  let ops = float_of_int events /. wall in
  let p50 = percentile lat 50. and p99 = percentile lat 99. in
  row series
    [ string_of_int events;
      Printf.sprintf "%dB" payload_bytes;
      Printf.sprintf "%.0f" ops;
      Printf.sprintf "%.3fms" (p50 *. 1000.);
      Printf.sprintf "%.3fms" (p99 *. 1000.) ];
  json_row ~figure:"recover" ~series
    [ ("events", J_int events);
      ("payload_bytes", J_int payload_bytes);
      ("wal_bytes", J_int (Store.wal_bytes store));
      ("throughput_ops", J_float ops);
      ("p50_ms", J_float (p50 *. 1000.));
      ("p99_ms", J_float (p99 *. 1000.)) ];
  p99

(* --- recovery time as the WAL grows ----------------------------------------- *)

let recovery_scaling ~payload_bytes sizes =
  row_header [ "wal size"; "recover"; "replayed" ];
  List.iter
    (fun events ->
      let dir = fresh_dir () in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      let payload = String.make payload_bytes 'y' in
      let store, _ = Store.open_ { Store.dir; fsync = false; snapshot_bytes = max_int } in
      for _ = 1 to events do
        ignore (Store.append store ~tag:4 payload)
      done;
      Store.sync store;
      let wal_bytes = Store.wal_bytes store in
      Store.close store;
      let t0 = Unix.gettimeofday () in
      let store2, rc = Store.open_ { Store.dir; fsync = false; snapshot_bytes = max_int } in
      let recover_s = Unix.gettimeofday () -. t0 in
      Store.close store2;
      let replayed = List.length rc.Store.rc_events in
      if replayed <> events then
        failwith
          (Printf.sprintf "recovery lost events: %d of %d replayed" replayed events);
      row
        (Printf.sprintf "%d events" events)
        [ Printf.sprintf "%.1fKB" (float_of_int wal_bytes /. 1024.);
          Printf.sprintf "%.1fms" (recover_s *. 1000.);
          string_of_int replayed ];
      json_row ~figure:"recover" ~series:"recovery_vs_wal"
        [ ("events", J_int events);
          ("wal_bytes", J_int wal_bytes);
          ("recover_ms", J_float (recover_s *. 1000.));
          ("replayed", J_int replayed) ])
    sizes

(* --- kill + recover through the full service -------------------------------- *)

let service_kill_recover () =
  subheader "service kill + recover";
  let width = 6 in
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cfg = { Store.dir; fsync = true; snapshot_bytes = 4 * 1024 * 1024 } in
  let svc =
    match Net.Service.recover cfg with
    | Ok (svc, _) -> svc
    | Error e -> failwith ("recover bench: fresh open failed: " ^ e)
  in
  let rng = Drbg.create ~seed:"recover-bench" in
  let keys = Keys.generate ~tdp_bits:512 ~rng () in
  let acc_params = Rsa_acc.setup ~rng ~bits:512 () in
  let owner = Owner.create ~width ~rng ~acc_params ~keys () in
  let shipment = Owner.build owner (Gen.uniform_records ~rng ~width 20) in
  (match
     Net.Service.handle svc
       (Net.Wire.Build
          { client = "recover-owner"; request_id = "r#1"; width; payment = 1000;
            acc = acc_params; tdp_n = keys.Keys.tdp_public.Rsa_tdp.pn;
            tdp_e = keys.Keys.tdp_public.Rsa_tdp.e;
            user_k = (Keys.for_user keys).Keys.u_k;
            user_k_r = (Keys.for_user keys).Keys.u_k_r; shipment;
            trapdoor = Owner.export_trapdoor_state owner; trace = None })
   with
   | Net.Wire.Accepted _ -> ()
   | _ -> failwith "recover bench: build refused");
  let user =
    match Net.Service.handle svc (Net.Wire.Hello { client = "recover-user"; proto = Net.Wire.proto_version }) with
    | Net.Wire.Welcome p ->
      User.create ~keys:p.Net.Wire.pv_user_keys ~width:p.Net.Wire.pv_width
        p.Net.Wire.pv_trapdoor
    | _ -> failwith "recover bench: hello refused"
  in
  let searches = 8 in
  for i = 1 to searches do
    let tokens =
      User.gen_tokens ~rng user (Slicer_types.query (1 + (i mod 60)) Slicer_types.Lt)
    in
    match
      Net.Service.handle svc
        (Net.Wire.Search
           { client = "recover-user"; request_id = Printf.sprintf "r-u#%d" i;
             batched = false; tokens; trace = None })
    with
    | Net.Wire.Found _ -> ()
    | _ -> failwith "recover bench: search refused"
  done;
  Option.iter Store.close (Net.Service.store svc);
  (* The kill: tear the last few bytes off the WAL, as SIGKILL mid-append
     would. Recovery must shrug — the torn record was never acked. *)
  let wal = Filename.concat dir "wal.log" in
  let size = (Unix.stat wal).Unix.st_size in
  if size > 4 then begin
    let fd = Unix.openfile wal [ Unix.O_RDWR ] 0o644 in
    Unix.ftruncate fd (size - 3);
    Unix.close fd
  end;
  let recover what =
    let t0 = Unix.gettimeofday () in
    match Net.Service.recover cfg with
    | Error e -> failwith (Printf.sprintf "recover bench: %s recovery failed: %s" what e)
    | Ok (svc, stats) ->
      let recover_s = Unix.gettimeofday () -. t0 in
      let head =
        match Net.Service.station svc with
        | None -> failwith ("recover bench: recovered unbuilt from the " ^ what)
        | Some st ->
          let ledger = Station.ledger st in
          (Ledger.height ledger, Block.hash (Ledger.head ledger))
      in
      Option.iter Store.close (Net.Service.store svc);
      (svc, stats, recover_s, head)
  in
  let svc2, stats, recover_s, head = recover "post-kill" in
  if Net.Service.searches_settled svc2 < searches - 1 then
    failwith "recover bench: settled searches lost beyond the torn record";
  (* Every recovery re-anchors on a snapshot, so every restart after the
     first reads one: it must resume the chain at the head the WAL
     replay reached. *)
  let _, snap_stats, snap_s, snap_head = recover "snapshot" in
  if not snap_stats.Net.Service.rs_snapshot || snap_stats.Net.Service.rs_replayed <> 0 then
    failwith "recover bench: the second recovery did not read the first one's snapshot";
  if snap_head <> head then
    failwith
      (Printf.sprintf
         "recover bench: the snapshot restart resumed the chain at height %d, not at the WAL \
          replay's head (height %d)"
         (fst snap_head) (fst head));
  Printf.printf
    "  recovered in %.1f ms: %d events replayed, torn tail %b, %d settled searches\n"
    (recover_s *. 1000.) stats.Net.Service.rs_replayed stats.Net.Service.rs_dropped_tail
    (Net.Service.searches_settled svc2);
  Printf.printf "  recovered from its snapshot in %.1f ms, at the same head (height %d)\n"
    (snap_s *. 1000.) (fst head);
  json_row ~figure:"recover" ~series:"service_kill_recover"
    [ ("replayed", J_int stats.Net.Service.rs_replayed);
      ("settled", J_int (Net.Service.searches_settled svc2));
      ("recover_ms", J_float (recover_s *. 1000.));
      ("snapshot_recover_ms", J_float (snap_s *. 1000.));
      ("height", J_int (fst head)) ]

let run scale =
  header "Durability (figure: recover)";
  let events, payload_bytes, sizes = params scale in
  row_header [ "events"; "payload"; "ops/s"; "p50"; "p99" ];
  ignore (wal_throughput ~events:(events / 10) ~payload_bytes ~fsync:true);
  let p99_nofsync = wal_throughput ~events ~payload_bytes ~fsync:false in
  recovery_scaling ~payload_bytes sizes;
  service_kill_recover ();
  (* The guard: journaling without barriers must stay micro-fast. *)
  if p99_nofsync > append_guard_s then
    failwith
      (Printf.sprintf
         "WAL append guard: p99 %.3f ms exceeds %.0f ms without fsync — journaling hot \
          path regressed"
         (p99_nofsync *. 1000.) (append_guard_s *. 1000.))
