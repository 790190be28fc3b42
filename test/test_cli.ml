(* The slicer CLI's admin commands against real processes. `stats` and
   `stats --json` scrape a spawned slicer-server, `trace --json` drains
   the trace of a search it served under --trace-slow-ms 0, and `stats`
   through a router over two shard processes prints both shards' series
   in one reply. *)

open Server_proc

let cli_exe () =
  List.find_opt Sys.file_exists
    [ "../bin/slicer_cli.exe"; "_build/default/bin/slicer_cli.exe"; "bin/slicer_cli.exe" ]

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let check_contains what hay needle =
  if not (contains hay needle) then Alcotest.failf "%s: no %S in\n%s" what needle hay

(* The CLI's stdout for [args]; fails unless it exits 0. *)
let run_cli cli args =
  let ic = Unix.open_process_args_in cli (Array.of_list (cli :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> Alcotest.failf "slicer %s failed:\n%s" (String.concat " " args) out

let stop (pid, out, _) =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  try Unix.close out with Unix.Unix_error _ -> ()

(* Runs [f] with the executables, or skips when a build left them out. *)
let with_binaries f =
  match (server_exe (), cli_exe ()) with
  | Some exe, Some cli -> f ~exe ~cli
  | _ -> Alcotest.skip ()

let test_server_scrapes () =
  with_binaries @@ fun ~exe ~cli ->
  let dir = fresh_state_dir () in
  let server =
    spawn_server ~records:60 ~exe ~dir ~extra:[ "--width"; "6"; "--trace-slow-ms"; "0" ] ()
  in
  Fun.protect ~finally:(fun () -> stop server; rm_rf dir) @@ fun () ->
  let _, _, port = server in
  let slicer args = run_cli cli (args @ [ "--port"; string_of_int port; "--log-level"; "error" ]) in
  check_contains "stats" (slicer [ "stats" ]) "slicer_net_requests_total";
  check_contains "stats --json" (slicer [ "stats"; "--json" ]) "\"counters\"";
  (* Drain what the self-seeding Build published, then trace one search. *)
  ignore (slicer [ "trace" ] : string);
  (match Net.Client.connect ~name:"cli-search" (Net.Server.Tcp ("127.0.0.1", port)) with
   | Error e -> Alcotest.failf "connect: %s" (Net.Client.error_to_string e)
   | Ok c ->
     let r = Net.Client.search c (Slicer_types.query 30 Slicer_types.Lt) in
     Net.Client.close c;
     (match r with
      | Ok out -> Alcotest.(check bool) "search verified" true out.Protocol.so_verified
      | Error e -> Alcotest.failf "search: %s" (Net.Client.error_to_string e)));
  let chrome = slicer [ "trace"; "--json" ] in
  check_contains "trace --json" chrome "\"traceEvents\"";
  check_contains "trace --json" chrome "\"name\": \"service.search\""

let test_router_scrape () =
  with_binaries @@ fun ~exe ~cli ->
  let dirs = Array.init 2 (fun _ -> fresh_state_dir ()) in
  let shards =
    Array.mapi
      (fun i dir ->
        spawn_server ~records:0 ~exe ~dir
          ~extra:
            [ "--shard-id"; string_of_int i; "--shard-count"; "2"; "--instance";
              Printf.sprintf "shard-%d" i ]
          ())
      dirs
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter stop shards;
      Array.iter rm_rf dirs)
  @@ fun () ->
  let router =
    Cluster.Router.create
      (Cluster.Topology.create
         (Array.to_list
            (Array.map (fun (_, _, port) -> Net.Server.Tcp ("127.0.0.1", port)) shards)))
  in
  let srv = Net.Server.start (Cluster.Router.handle router) in
  Fun.protect
    ~finally:(fun () ->
      Net.Server.stop srv;
      Cluster.Router.close router)
  @@ fun () ->
  let port = Net.Server.port srv in
  let text = run_cli cli [ "stats"; "--port"; string_of_int port; "--log-level"; "error" ] in
  List.iter
    (fun i -> check_contains "one stats reply" text (Printf.sprintf "instance=\"shard-%d\"" i))
    [ 0; 1 ]

let () =
  Alcotest.run "cli"
    [ ( "admin",
        [ Alcotest.test_case "stats and trace scrape a server" `Quick test_server_scrapes;
          Alcotest.test_case "stats scrapes a cluster through its router" `Quick
            test_router_scrape ] ) ]
