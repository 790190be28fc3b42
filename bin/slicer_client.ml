(* The Slicer data-user client.

     slicer-client --port 7070 ping
     slicer-client --port 7070 search -v 77 -c '>'
     slicer-client --port 7070 search -v 77 -c '=' --repeat 10

   Connects, provisions itself via Hello (keys + trapdoor state +
   funded chain address), then runs verified searches. Retries with
   jittered exponential backoff survive server restarts; request ids
   make retried searches settle escrow exactly once. *)

open Cmdliner

let host_arg = Front.host_arg ~doc:"Server address."
let port_arg = Front.port_arg ~doc:"Server TCP port."
let socket_arg = Front.socket_arg ~doc:"Connect to a Unix-domain socket at $(docv) instead of TCP."

let name_arg =
  let doc = "Client identity (reusing a name reattaches to its funded address)." in
  Arg.(value & opt (some string) None & info [ "name" ] ~docv:"NAME" ~doc)

let timeout_arg =
  let doc = "Per-request timeout in seconds." in
  Arg.(value & opt float 30. & info [ "timeout" ] ~docv:"SECONDS" ~doc)

let attempts_arg =
  let doc = "Total attempts per request (retries reconnect with backoff)." in
  Arg.(value & opt int 5 & info [ "attempts" ] ~docv:"N" ~doc)

(* No [-v] short form: search spends it on --value. *)
let verbose_arg =
  Front.verbose_arg ~names:[ "verbose" ] ~doc:"Enable debug logging (same as --log-level debug)."

let log_level_arg =
  Front.log_level_arg ~default:(Some Logs.Warning)
    ~doc:"Log verbosity: debug, info, warning, error or quiet. Debug shows every retry, \
          backoff sleep and reconnect."


let config_of timeout attempts =
  { Net.Client.default_config with request_timeout = timeout; max_attempts = attempts }

let connect ?provision host port socket name timeout attempts =
  Net.Client.connect ~config:(config_of timeout attempts) ?name ?provision
    (Front.endpoint host port socket)

(* --- ping -------------------------------------------------------------- *)

let run_ping host port socket name timeout attempts log_level verbose =
  Front.setup_logs log_level verbose;
  match connect host port socket name timeout attempts with
  | Error e -> `Error (false, Net.Client.error_to_string e)
  | Ok c ->
    (match Net.Client.ping c with
     | Ok rtt ->
       Printf.printf "pong from %s in %.2f ms (width %d, payment %d, generation %d)\n"
         (match Front.endpoint host port socket with
          | Net.Server.Tcp (h, p) -> Printf.sprintf "%s:%d" h p
          | Net.Server.Unix_socket p -> p)
         (rtt *. 1000.) (Net.Client.width c) (Net.Client.payment c) (Net.Client.generation c);
       Net.Client.close c;
       `Ok ()
     | Error e -> `Error (false, Net.Client.error_to_string e))

let ping_cmd =
  let info = Cmd.info "ping" ~doc:"Round-trip and provisioning check" in
  Cmd.v info
    Term.(
      ret
        (const run_ping $ host_arg $ port_arg $ socket_arg $ name_arg $ timeout_arg
       $ attempts_arg $ log_level_arg $ verbose_arg))

(* --- search ------------------------------------------------------------ *)

let value_arg =
  let doc = "Query value." in
  Arg.(required & opt (some int) None & info [ "value"; "v" ] ~docv:"V" ~doc)

let cond_conv =
  let parse = function
    | "eq" | "=" -> Ok Slicer_types.Eq
    | "gt" | ">" -> Ok Slicer_types.Gt
    | "lt" | "<" -> Ok Slicer_types.Lt
    | s -> Error (`Msg (Printf.sprintf "unknown condition %S (use =, > or <)" s))
  in
  Arg.conv (parse, Slicer_types.pp_condition)

let cond_arg =
  let doc = "Matching condition: =, > or <." in
  Arg.(value & opt cond_conv Slicer_types.Eq & info [ "cond"; "c" ] ~docv:"OC" ~doc)

let attr_arg =
  let doc = "Attribute name (default: the anonymous attribute)." in
  Arg.(value & opt string "" & info [ "attr"; "a" ] ~docv:"ATTR" ~doc)

let batched_arg =
  let doc = "Settle through the batched-witness contract path." in
  Arg.(value & flag & info [ "batched" ] ~doc)

let repeat_arg =
  let doc = "Run the search N times (distinct request ids)." in
  Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N" ~doc)

let settlement_arg =
  let doc = "After each search, poll and print the settlement status of \
             its receipt (pending / committed / final / refunded) — \
             meaningful against a server running with --settle-batch." in
  Arg.(value & flag & info [ "settlement" ] ~doc)

let dispute_arg =
  let doc = "If the local Algorithm-5 check rejects a deferred result, \
             file an on-chain dispute with the claims bytes kept from \
             the reply: a proven-bad leaf slashes the cloud's deposit \
             to this client and refunds the whole batch." in
  Arg.(value & flag & info [ "dispute-on-reject" ] ~doc)

let trace_arg =
  let doc = "Trace every search end to end: the client mints the trace \
             id and stamps it on the wire, so the server (and, behind a \
             router, every shard) records its phases under the same \
             trace — dump them afterwards with $(b,slicer trace)." in
  Arg.(value & flag & info [ "trace" ] ~doc)

let describe_status = function
  | Net.Wire.Rcp_unknown -> "unknown (not a deferred receipt)"
  | Net.Wire.Rcp_pending si ->
    Printf.sprintf "pending in open batch %s (leaf %d)" si.Net.Wire.si_batch si.Net.Wire.si_index
  | Net.Wire.Rcp_committed si ->
    Printf.sprintf "committed in batch %s (leaf %d) - dispute window open"
      si.Net.Wire.si_batch si.Net.Wire.si_index
  | Net.Wire.Rcp_final { batch } -> Printf.sprintf "final (batch %s settled; cloud paid)" batch
  | Net.Wire.Rcp_refunded { batch } ->
    Printf.sprintf "refunded (batch %s slashed)" batch

let print_settlement c ~disputing verified =
  match Net.Client.last_request_id c with
  | None -> ()
  | Some rid ->
    (match Net.Client.receipt c ~request_id:rid with
     | Ok st -> Printf.printf "  settlement: %s\n" (describe_status st)
     | Error e -> Printf.printf "  settlement: %s\n" (Net.Client.error_to_string e));
    if disputing && not verified then begin
      match Net.Client.dispute c ~request_id:rid with
      | Ok (true, r) ->
        Printf.printf "  dispute: proven bad - cloud slashed, batch refunded (gas %d)\n"
          r.Vm.r_gas_used
      | Ok (false, r) ->
        Printf.printf "  dispute: rejected on-chain (%s)\n"
          (match r.Vm.r_output with Error e -> e | Ok _ -> "leaf verified")
      | Error e -> Printf.printf "  dispute: %s\n" (Net.Client.error_to_string e)
    end

let run_search host port socket name timeout attempts log_level verbose value cond attr batched
    repeat settlement disputing trace =
  Front.setup_logs log_level verbose;
  if trace then Trace.set_sample_rate 1.;
  match connect host port socket name timeout attempts with
  | Error e -> `Error (false, Net.Client.error_to_string e)
  | Ok c ->
    let query = Slicer_types.query ~attr value cond in
    let searched () = Net.Client.search ~batched c query in
    let rec go i =
      if i > repeat then `Ok ()
      else begin
        match
          if trace then Trace.root "client.search" searched else searched ()
        with
        | Error e -> `Error (false, Net.Client.error_to_string e)
        | Ok out ->
          Printf.printf
            "search %d/%d: %d tokens, %d results (%dB results, %dB VO), %s, gas %d\n"
            i repeat out.Protocol.so_token_count
            (List.length out.Protocol.so_ids)
            out.Protocol.so_result_bytes out.Protocol.so_vo_bytes
            (if out.Protocol.so_token_count = 0 then "no token - answered locally, nothing escrowed"
             else if out.Protocol.so_verified then "VERIFIED - cloud paid"
             else "REJECTED - refunded")
            out.Protocol.so_gas_used;
          if i = 1 then
            Printf.printf "  matches: [%s]\n"
              (String.concat "; " (List.sort compare out.Protocol.so_ids));
          if (settlement || disputing) && out.Protocol.so_token_count > 0 then
            print_settlement c ~disputing out.Protocol.so_verified;
          go (i + 1)
      end
    in
    let r = go 1 in
    Net.Client.close c;
    (* The client's own spans (the round-trip roots) print here; the
       server-side phases are drained with [slicer trace]. *)
    if trace then
      List.iter
        (fun t -> print_string (Trace.Tree.render t))
        (Trace.Tree.assemble (Trace.drain ()));
    r

let search_cmd =
  let info = Cmd.info "search" ~doc:"Run verified searches against a slicer-server" in
  Cmd.v info
    Term.(
      ret
        (const run_search $ host_arg $ port_arg $ socket_arg $ name_arg $ timeout_arg
       $ attempts_arg $ log_level_arg $ verbose_arg $ value_arg $ cond_arg $ attr_arg
       $ batched_arg $ repeat_arg $ settlement_arg $ dispute_arg $ trace_arg))

let () =
  let info =
    Cmd.info "slicer-client" ~version:"1.0.0"
      ~doc:"Fault-tolerant Slicer data-user client"
  in
  exit (Cmd.eval (Cmd.group info [ ping_cmd; search_cmd ]))
