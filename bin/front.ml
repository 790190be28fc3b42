(* The command-line front end the Slicer binaries share: the endpoint
   and logging flags all four take, and the listening binaries'
   (slicer-server, slicer-router) serving flags, start-up and signal
   loop. *)

open Cmdliner

let host_arg ~doc = Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)

let port_arg ~doc = Arg.(value & opt int 7070 & info [ "port"; "p" ] ~docv:"PORT" ~doc)

let socket_arg ~doc =
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let endpoint host port socket =
  match socket with
  | Some path -> Net.Server.Unix_socket path
  | None -> Net.Server.Tcp (host, port)

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

let log_level_arg ~default ~doc =
  Arg.(value & opt log_level_conv default & info [ "log-level" ] ~docv:"LEVEL" ~doc)

(* [names] is [["verbose"; "v"]], or [["verbose"]] where a command
   spends [-v] on another flag. *)
let verbose_arg ~names ~doc = Arg.(value & flag & info names ~doc)

let setup_logs level verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else level)

(* --- the listening binaries ------------------------------------------- *)

type serving = {
  config : Net.Server.config;
  trace_sample : float;
  trace_slow_ms : float option;
}

let serving_term ~what =
  let serving host port socket read_timeout max_inflight max_conns trace_sample trace_slow_ms
      log_level verbose =
    setup_logs log_level verbose;
    { config =
        { Net.Server.endpoint = endpoint host port socket; read_timeout; max_inflight; max_conns };
      trace_sample;
      trace_slow_ms }
  in
  let read_timeout =
    let doc = "Per-connection read timeout in seconds." in
    Arg.(value & opt float 30. & info [ "read-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let max_inflight =
    let doc = "Maximum concurrently processed requests; beyond this \
               clients receive a busy refusal and back off." in
    Arg.(value & opt int 64 & info [ "max-inflight" ] ~docv:"N" ~doc)
  in
  let max_conns =
    let doc = "Maximum simultaneously open connections; accepts past the \
               cap are closed immediately." in
    Arg.(value & opt int 4096 & info [ "max-conns" ] ~docv:"N" ~doc)
  in
  let trace_sample =
    let doc =
      Printf.sprintf
        "Probability that a %s starts a published trace (0 disables sampling; requests \
         arriving with an upstream trace context are always recorded)."
        what
    in
    Arg.(value & opt float 0. & info [ "trace-sample" ] ~docv:"P" ~doc)
  in
  let trace_slow_ms =
    let doc =
      Printf.sprintf
        "Slow-query threshold: force-publish (and log, with a phase breakdown) every %s \
         that runs at least $(docv) milliseconds, sampled or not. 0 traces everything."
        what
    in
    Arg.(value & opt (some float) None & info [ "trace-slow-ms" ] ~docv:"N" ~doc)
  in
  Term.(
    const serving
    $ host_arg ~doc:"Address to listen on."
    $ port_arg ~doc:"TCP port (0 picks an ephemeral port, printed at startup)."
    $ socket_arg ~doc:"Serve on a Unix-domain socket at $(docv) instead of TCP."
    $ read_timeout $ max_inflight $ max_conns $ trace_sample $ trace_slow_ms
    $ log_level_arg ~default:(Some Logs.Info)
        ~doc:"Log verbosity: debug, info, warning, error or quiet."
    $ verbose_arg ~names:[ "verbose"; "v" ]
        ~doc:"Enable debug logging (same as --log-level debug).")

(* Checks the serving limits and applies the tracing flags. *)
let prepare s =
  if s.config.Net.Server.max_conns < 1 then Error "--max-conns must be >= 1"
  else begin
    Trace.set_sample_rate s.trace_sample;
    Trace.set_slow_ms s.trace_slow_ms;
    Ok ()
  end

(* Listens with [handle], prints where, runs [tick] every 0.2 s until
   SIGINT or SIGTERM, then reports what it served ("%d requests
   [verb]") and stops. *)
let serve s handle ~tick ~verb =
  let server = Net.Server.start ~config:s.config handle in
  (match s.config.Net.Server.endpoint with
   | Net.Server.Tcp (h, _) -> Printf.printf "listening on %s:%d\n%!" h (Net.Server.port server)
   | Net.Server.Unix_socket p -> Printf.printf "listening on %s\n%!" p);
  let stopping = ref false in
  let stop_now _ = stopping := true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop_now);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_now);
  while not !stopping do
    Unix.sleepf 0.2;
    tick ()
  done;
  Printf.printf "\nshutting down: %d connections, %d requests %s\n%!"
    (Net.Server.connections_served server)
    (Net.Server.requests_served server) verb;
  Net.Server.stop server
