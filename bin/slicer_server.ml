(* The Slicer cloud server.

     slicer-server --records 200            self-seed (apply its own Build) and serve
     slicer-server --records 0              empty: await an owner Build
     slicer-server --socket /tmp/slicer.sock

   Serves the framed-RPC protocol of lib/net: Hello provisioning,
   Search settlement (idempotent by request id), owner Build/Insert
   shipments. Runs until SIGINT/SIGTERM. *)

open Cmdliner

let seed_arg =
  let doc = "Deterministic seed for keys and self-seeded data." in
  Arg.(value & opt string "slicer-server" & info [ "seed" ] ~docv:"SEED" ~doc)

let records_arg =
  let doc = "Self-seed with N random records, applied as the Build of the \
             server's own owner (0 = start empty and await an owner's Build \
             shipment over the wire). A database in --state-dir wins." in
  Arg.(value & opt int 200 & info [ "records"; "n" ] ~docv:"N" ~doc)

let width_arg =
  let doc = "Value width in bits for self-seeded data." in
  Arg.(value & opt int 8 & info [ "width"; "w" ] ~docv:"BITS" ~doc)

let payment_arg =
  let doc = "Per-search fee escrowed on chain (wei)." in
  Arg.(value & opt int 1000 & info [ "payment" ] ~docv:"WEI" ~doc)

let domains_arg =
  let doc = "Worker domains for the search/VO hot path." in
  Arg.(value & opt int 1 & info [ "domains"; "j" ] ~docv:"N" ~doc)

let state_dir_arg =
  let doc = "Durable state directory (WAL + snapshots). On startup the \
             server recovers from it — newest valid snapshot plus WAL \
             tail — and refuses to serve if the recovered accumulator \
             disagrees with the on-chain $(i,Ac). Without this flag all \
             state is in-memory and dies with the process." in
  Arg.(value & opt (some string) None & info [ "state-dir" ] ~docv:"DIR" ~doc)

let snapshot_bytes_arg =
  let doc = "Take an atomic state snapshot (and truncate the WAL) every \
             time the log exceeds $(docv) bytes." in
  Arg.(value & opt int (4 * 1024 * 1024) & info [ "snapshot-bytes" ] ~docv:"BYTES" ~doc)

let no_fsync_arg =
  let doc = "Skip fsync barriers on the WAL and snapshots (benchmarks \
             only: a crash can lose recent events)." in
  Arg.(value & flag & info [ "no-fsync" ] ~doc)

let metrics_interval_arg =
  let doc = "Seconds between metrics summary log lines (0 = none)." in
  Arg.(value & opt float 10. & info [ "metrics-interval" ] ~docv:"SECONDS" ~doc)

let instance_arg =
  let doc = "Instance name echoed in Welcome frames and metrics (e.g. \
             $(b,shard-0)). Defaults to $(b,shard-ID) when --shard-count \
             is above 1, empty otherwise." in
  Arg.(value & opt (some string) None & info [ "instance" ] ~docv:"NAME" ~doc)

let shard_id_arg =
  let doc = "This server's shard index within a cluster (0-based). Stored \
             in the on-chain contract at Build so recovery and verification \
             stay per-shard." in
  Arg.(value & opt int 0 & info [ "shard-id" ] ~docv:"I" ~doc)

let shard_count_arg =
  let doc = "Total shards in the cluster this server belongs to. 1 (the \
             default) means a standalone server." in
  Arg.(value & opt int 1 & info [ "shard-count" ] ~docv:"N" ~doc)

let settle_batch_arg =
  let doc = "Batched optimistic settlement: defer on-chain verification and \
             commit one Merkle root per $(docv) search receipts. 0 or 1 \
             keeps the eager per-search settlement." in
  Arg.(value & opt int 0 & info [ "settle-batch" ] ~docv:"N" ~doc)

let settle_window_ms_arg =
  let doc = "Commit a non-empty settlement batch at most $(docv) \
             milliseconds after its first receipt, even when below the \
             --settle-batch size." in
  Arg.(value & opt float 1000. & info [ "settle-window-ms" ] ~docv:"MS" ~doc)

let settle_dispute_window_arg =
  let doc = "Dispute window, in blocks: a committed batch finalizes once \
             this many blocks sealed after its commitment. Stamped into \
             the contract at Build, a self-seeded server's included." in
  Arg.(value & opt int 4 & info [ "settle-dispute-window" ] ~docv:"BLOCKS" ~doc)

let log_snapshot () =
  Logs.info (fun m ->
      m "stats: %d requests, %d settled, %d replays, %d busy, %dB in, %dB out, gas %d"
        (Obs.counter_value "slicer_net_requests_total")
        (Obs.counter_value "slicer_net_searches_settled_total")
        (Obs.counter_value "slicer_net_idempotent_replays_total")
        (Obs.counter_value "slicer_net_busy_refusals_total")
        (Obs.counter_value "slicer_net_bytes_in_total")
        (Obs.counter_value "slicer_net_bytes_out_total")
        (Obs.counter_value "slicer_chain_gas_total"))

(* A self-seeded server is its own data owner: it applies that owner's
   Build through [Service.handle], as it would a remote owner's. *)
let self_seed service ~seed ~records ~width ~payment =
  Printf.printf "self-seeding %d records (width %d, seed %S)...\n%!" records width seed;
  let db = Gen.uniform_records ~rng:(Drbg.create ~seed:(seed ^ ":data")) ~width records in
  match Net.Service.handle service (Net.Client.seeded_build ~width ~payment ~seed db) with
  | Net.Wire.Accepted _ -> Ok service
  | Net.Wire.Refused { detail; _ } -> Error ("self-seeding failed: " ^ detail)
  | _ -> Error "self-seeding failed: the Build was not accepted"

let run serving seed records width payment domains state_dir snapshot_bytes no_fsync
    metrics_interval instance shard_id shard_count settle_batch settle_window_ms
    settle_dispute_window =
  match Front.prepare serving with
  | Error e -> `Error (false, e)
  | Ok () ->
  if domains < 1 then `Error (false, "--domains must be >= 1")
  else if records < 0 then `Error (false, "--records must be >= 0")
  else if snapshot_bytes < 1 then `Error (false, "--snapshot-bytes must be >= 1")
  else if shard_count < 1 then `Error (false, "--shard-count must be >= 1")
  else if shard_id < 0 || shard_id >= shard_count then
    `Error (false, "--shard-id must be in [0, shard-count)")
  else if settle_batch < 0 then `Error (false, "--settle-batch must be >= 0")
  else if settle_dispute_window < 1 then
    `Error (false, "--settle-dispute-window must be >= 1")
  else begin
    Parallel.set_domains domains;
    let shard = (shard_id, shard_count) in
    let instance =
      match instance with
      | Some name -> name
      | None -> if shard_count > 1 then Printf.sprintf "shard-%d" shard_id else ""
    in
    Obs.set_instance instance;
    let settle =
      if settle_batch > 1 then
        Some
          { Settle_batch.default_config with
            Settle_batch.sb_size = settle_batch;
            sb_window_ms = settle_window_ms;
            sb_dispute_blocks = settle_dispute_window }
      else None
    in
    let service_or_error =
      match state_dir with
      | None -> Ok (Net.Service.create ?settle ~instance ~shard ())
      | Some dir ->
        let cfg = { Store.dir; fsync = not no_fsync; snapshot_bytes } in
        (match Net.Service.recover ?settle ~instance ~shard cfg with
         | Error e -> Error (Printf.sprintf "recovery from %s failed: %s" dir e)
         | Ok (svc, stats) ->
           if Net.Service.built svc then
             Printf.printf
               "recovered from %s: snapshot=%b, %d events replayed%s, generation %d\n%!" dir
               stats.Net.Service.rs_snapshot stats.Net.Service.rs_replayed
               (if stats.Net.Service.rs_dropped_tail then " (torn tail discarded)" else "")
               (Net.Service.generation svc);
           Ok svc)
    in
    match
      Result.bind service_or_error (fun svc ->
          if Net.Service.built svc then Ok svc
          else if records > 0 then self_seed svc ~seed ~records ~width ~payment
          else begin
            Printf.printf "starting empty%s: awaiting an owner Build shipment\n%!"
              (match state_dir with Some dir -> " (durable in " ^ dir ^ ")" | None -> "");
            Ok svc
          end)
    with
    | Error msg -> `Error (false, msg)
    | Ok service ->
    (* Monotonic interval arithmetic: an NTP step must not burst or
       starve the snapshot cadence. *)
    let last_snapshot = ref (Obs.Clock.now ()) in
    Front.serve serving (Net.Service.handle service) ~verb:"served"
      ~tick:(fun () ->
        (* Settlement timer: commit window-expired batches, finalize
           past the dispute cutoff. No-op without --settle-batch. *)
        ignore (Net.Service.settle_tick service);
        if metrics_interval > 0. && Obs.Clock.now () -. !last_snapshot >= metrics_interval
        then begin
          last_snapshot := Obs.Clock.now ();
          log_snapshot ()
        end);
    Option.iter Store.close (Net.Service.store service);
    `Ok ()
  end

let cmd =
  let info =
    Cmd.info "slicer-server" ~version:"1.0.0"
      ~doc:"Concurrent Slicer cloud server (framed RPC over TCP or Unix sockets)"
  in
  Cmd.v info
    Term.(
      ret
        (const run
        $ Front.serving_term ~what:"request"
        $ seed_arg $ records_arg $ width_arg $ payment_arg $ domains_arg $ state_dir_arg
        $ snapshot_bytes_arg $ no_fsync_arg $ metrics_interval_arg $ instance_arg
        $ shard_id_arg $ shard_count_arg $ settle_batch_arg $ settle_window_ms_arg
        $ settle_dispute_window_arg))

let () = exit (Cmd.eval cmd)
