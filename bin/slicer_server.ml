(* The Slicer cloud server.

     slicer-server --records 200            self-seed and serve
     slicer-server --records 0              empty: await an owner Build
     slicer-server --socket /tmp/slicer.sock

   Serves the framed-RPC protocol of lib/net: Hello provisioning,
   Search settlement (idempotent by request id), owner Build/Insert
   shipments. Runs until SIGINT/SIGTERM. *)

open Cmdliner

let host_arg =
  let doc = "Address to listen on." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)

let port_arg =
  let doc = "TCP port (0 picks an ephemeral port, printed at startup)." in
  Arg.(value & opt int 7070 & info [ "port"; "p" ] ~docv:"PORT" ~doc)

let socket_arg =
  let doc = "Serve on a Unix-domain socket at $(docv) instead of TCP." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let seed_arg =
  let doc = "Deterministic seed for keys and self-seeded data." in
  Arg.(value & opt string "slicer-server" & info [ "seed" ] ~docv:"SEED" ~doc)

let records_arg =
  let doc = "Self-seed with N random records (0 = start empty and await \
             an owner's Build shipment over the wire)." in
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

let read_timeout_arg =
  let doc = "Per-connection read timeout in seconds." in
  Arg.(value & opt float 30. & info [ "read-timeout" ] ~docv:"SECONDS" ~doc)

let max_inflight_arg =
  let doc = "Maximum concurrently processed requests; beyond this \
             clients receive a busy refusal and back off." in
  Arg.(value & opt int 64 & info [ "max-inflight" ] ~docv:"N" ~doc)

let max_conns_arg =
  let doc = "Maximum simultaneously open connections; accepts past the \
             cap are closed immediately." in
  Arg.(value & opt int 4096 & info [ "max-conns" ] ~docv:"N" ~doc)

let workers_arg =
  let doc = "Dispatch worker threads executing request handlers off the \
             event loop." in
  Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N" ~doc)

let verbose_arg =
  let doc = "Enable debug logging (same as --log-level debug)." in
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc)

let log_level_conv =
  let parse = function
    | "debug" -> Ok (Some Logs.Debug)
    | "info" -> Ok (Some Logs.Info)
    | "warning" -> Ok (Some Logs.Warning)
    | "error" -> Ok (Some Logs.Error)
    | "quiet" -> Ok None
    | s -> Error (`Msg (Printf.sprintf "unknown log level %S" s))
  in
  let print ppf = function
    | None -> Format.pp_print_string ppf "quiet"
    | Some l -> Format.pp_print_string ppf (Logs.level_to_string (Some l))
  in
  Arg.conv (parse, print)

let log_level_arg =
  let doc = "Log verbosity: debug, info, warning, error or quiet." in
  Arg.(value & opt log_level_conv (Some Logs.Info) & info [ "log-level" ] ~docv:"LEVEL" ~doc)

let setup_logs level verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else level)

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

let metrics_dump_arg =
  let doc = "Every metrics interval (and at shutdown), write the metrics \
             registry snapshot to $(docv) — Prometheus text if it ends in \
             .prom, JSON otherwise. Parent directories are created." in
  Arg.(value & opt (some string) None & info [ "metrics-dump" ] ~docv:"FILE" ~doc)

let metrics_interval_arg =
  let doc = "Seconds between metrics snapshots (dump + summary log line)." in
  Arg.(value & opt float 10. & info [ "metrics-interval" ] ~docv:"SECONDS" ~doc)

let no_metrics_arg =
  let doc = "Disable metrics recording (spans and counters become no-ops)." in
  Arg.(value & flag & info [ "no-metrics" ] ~doc)

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

let trace_sample_arg =
  let doc = "Probability that a request starts a published trace (0 \
             disables sampling; requests arriving with an upstream trace \
             context are always recorded)." in
  Arg.(value & opt float 0. & info [ "trace-sample" ] ~docv:"P" ~doc)

let trace_slow_ms_arg =
  let doc = "Slow-query threshold: force-publish (and log, with a phase \
             breakdown) every request that runs at least $(docv) \
             milliseconds, sampled or not. 0 traces everything." in
  Arg.(value & opt (some float) None & info [ "trace-slow-ms" ] ~docv:"N" ~doc)

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
             this many blocks sealed after its commitment." in
  Arg.(value & opt int 4 & info [ "settle-dispute-window" ] ~docv:"BLOCKS" ~doc)

let dump_metrics path =
  let content =
    if Filename.check_suffix path ".prom" then Obs.Export.to_prometheus ()
    else Obs.Export.to_json ()
  in
  try Obs.Export.write_file path content
  with Sys_error e -> Logs.err (fun m -> m "metrics dump failed: %s" e)

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

let self_seed ~seed ~records ~width ~payment ?settle ~instance ~shard () =
  Printf.printf "self-seeding %d records (width %d, seed %S)...\n%!" records width seed;
  let rng = Drbg.create ~seed:(seed ^ ":data") in
  let db = Gen.uniform_records ~rng ~width records in
  let system = Protocol.setup ~width ~payment ~seed db in
  Cloud.precompute_witnesses (Protocol.cloud system);
  Net.Service.of_protocol ?settle ~instance ~shard system

let run host port socket seed records width payment domains read_timeout max_inflight
    max_conns workers verbose
    log_level state_dir snapshot_bytes no_fsync metrics_dump metrics_interval no_metrics
    instance shard_id shard_count trace_sample trace_slow_ms
    settle_batch settle_window_ms settle_dispute_window =
  setup_logs log_level verbose;
  Obs.set_enabled (not no_metrics);
  Trace.set_sample_rate trace_sample;
  Trace.set_slow_ms trace_slow_ms;
  if domains < 1 then `Error (false, "--domains must be >= 1")
  else if records < 0 then `Error (false, "--records must be >= 0")
  else if max_conns < 1 then `Error (false, "--max-conns must be >= 1")
  else if workers < 1 then `Error (false, "--workers must be >= 1")
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
      | None ->
        if records = 0 then begin
          Printf.printf "starting empty: awaiting an owner Build shipment\n%!";
          Ok (Net.Service.create ?settle ~instance ~shard ())
        end
        else
          Ok
            (self_seed ~seed ~records ~width ~payment ?settle ~instance ~shard ())
      | Some dir ->
        let cfg = { Store.dir; fsync = not no_fsync; snapshot_bytes } in
        (match Net.Service.recover ?settle ~instance ~shard cfg with
         | Error e -> Error (Printf.sprintf "recovery from %s failed: %s" dir e)
         | Ok (svc, stats) ->
           if Net.Service.built svc then begin
             Printf.printf
               "recovered from %s: snapshot=%b, %d events replayed%s, generation %d\n%!" dir
               stats.Net.Service.rs_snapshot stats.Net.Service.rs_replayed
               (if stats.Net.Service.rs_dropped_tail then " (torn tail discarded)" else "")
               (Net.Service.generation svc);
             Ok svc
           end
           else if records = 0 then begin
             Printf.printf "starting empty (durable in %s): awaiting an owner Build shipment\n%!" dir;
             Ok svc
           end
           else begin
             (* Fresh state dir + --records: seed once, then hand the
                store to the seeded service, whose attach checkpoint
                makes the seed durable. *)
             let seeded = self_seed ~seed ~records ~width ~payment ?settle ~instance ~shard () in
             (match Net.Service.store svc with
              | Some store -> Net.Service.attach_store seeded store
              | None -> ());
             Ok seeded
           end)
    in
    match service_or_error with
    | Error msg -> `Error (false, msg)
    | Ok service ->
    let endpoint =
      match socket with
      | Some path -> Net.Server.Unix_socket path
      | None -> Net.Server.Tcp (host, port)
    in
    let config =
      { Net.Server.default_config with
        endpoint; read_timeout; max_inflight; max_conns; workers }
    in
    let server = Net.Server.start ~config (Net.Service.handle service) in
    (match endpoint with
     | Net.Server.Tcp (h, _) -> Printf.printf "listening on %s:%d\n%!" h (Net.Server.port server)
     | Net.Server.Unix_socket p -> Printf.printf "listening on %s\n%!" p);
    let stopping = ref false in
    let stop_now _ = stopping := true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop_now);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_now);
    (* Monotonic interval arithmetic: an NTP step must not burst or
       starve the snapshot cadence. *)
    let last_snapshot = ref (Obs.Clock.now ()) in
    while not !stopping do
      Unix.sleepf 0.2;
      (* Settlement timer: commit window-expired batches, finalize past
         the dispute cutoff. No-op without --settle-batch. *)
      ignore (Net.Service.settle_tick service);
      if metrics_interval > 0. && Obs.Clock.now () -. !last_snapshot >= metrics_interval
      then begin
        last_snapshot := Obs.Clock.now ();
        log_snapshot ();
        Option.iter dump_metrics metrics_dump
      end
    done;
    (* Final snapshot so a short-lived run still leaves a dump behind. *)
    Option.iter dump_metrics metrics_dump;
    Printf.printf "\nshutting down: %d connections, %d requests served\n%!"
      (Net.Server.connections_served server)
      (Net.Server.requests_served server);
    Net.Server.stop server;
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
        (const run $ host_arg $ port_arg $ socket_arg $ seed_arg $ records_arg $ width_arg
       $ payment_arg $ domains_arg $ read_timeout_arg $ max_inflight_arg
       $ max_conns_arg $ workers_arg $ verbose_arg
       $ log_level_arg $ state_dir_arg $ snapshot_bytes_arg $ no_fsync_arg
       $ metrics_dump_arg $ metrics_interval_arg $ no_metrics_arg
       $ instance_arg $ shard_id_arg $ shard_count_arg $ trace_sample_arg
       $ trace_slow_ms_arg $ settle_batch_arg $ settle_window_ms_arg
       $ settle_dispute_window_arg))

let () = exit (Cmd.eval cmd)
