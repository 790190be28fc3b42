(* The slicer command-line tool.

     slicer demo     - end-to-end verifiable search on random data
     slicer sore     - SORE encrypt/compare playground
     slicer features - Table I feature matrix
     slicer gas      - live gas costs on the simulated chain
     slicer stats    - scrape a running server's (or router's) metrics
     slicer trace    - drain and render its completed request traces

   Every run is deterministic given --seed. *)

open Cmdliner

let width_arg =
  let doc = "Value width in bits (the paper's b; 1-30)." in
  Arg.(value & opt int 8 & info [ "width"; "w" ] ~docv:"BITS" ~doc)

let seed_arg =
  let doc = "Deterministic seed for keys, data and trapdoors." in
  Arg.(value & opt string "slicer-cli" & info [ "seed" ] ~docv:"SEED" ~doc)

let records_arg =
  let doc = "Number of random records to outsource." in
  Arg.(value & opt int 50 & info [ "records"; "n" ] ~docv:"N" ~doc)

(* --- demo ------------------------------------------------------------ *)

let misbehavior_conv =
  let parse = function
    | "honest" -> Ok Cloud.Honest
    | "drop" -> Ok Cloud.Drop_result
    | "inject" -> Ok Cloud.Inject_result
    | "tamper" -> Ok Cloud.Tamper_result
    | "forge" -> Ok Cloud.Forge_witness
    | "stale" -> Ok Cloud.Stale_results
    | s -> Error (`Msg (Printf.sprintf "unknown cloud behaviour %S" s))
  in
  let print fmt m =
    Format.pp_print_string fmt
      (match m with
       | Cloud.Honest -> "honest"
       | Cloud.Drop_result -> "drop"
       | Cloud.Inject_result -> "inject"
       | Cloud.Tamper_result -> "tamper"
       | Cloud.Forge_witness -> "forge"
       | Cloud.Stale_results -> "stale")
  in
  Arg.conv (parse, print)

let behavior_arg =
  let doc = "Cloud behaviour: honest, drop, inject, tamper, forge or stale." in
  Arg.(value & opt misbehavior_conv Cloud.Honest & info [ "cloud" ] ~docv:"MODE" ~doc)

let value_arg =
  let doc = "Query value (default: width-dependent midpoint)." in
  Arg.(value & opt (some int) None & info [ "value"; "v" ] ~docv:"V" ~doc)

let cond_conv =
  let parse = function
    | "eq" | "=" -> Ok Slicer_types.Eq
    | "gt" | ">" -> Ok Slicer_types.Gt
    | "lt" | "<" -> Ok Slicer_types.Lt
    | s -> Error (`Msg (Printf.sprintf "unknown condition %S (use =, > or <)" s))
  in
  Arg.conv (parse, Slicer_types.pp_condition)

let cond_arg =
  let doc = "Matching condition: =, > or < (the query (v, oc) matches records a with v oc a)." in
  Arg.(value & opt cond_conv Slicer_types.Gt & info [ "cond"; "c" ] ~docv:"OC" ~doc)

(* No [-v] short form: the demo/search commands spend it on --value. *)
let verbose_arg =
  Front.verbose_arg ~names:[ "verbose" ]
    ~doc:"Enable protocol debug logging (same as --log-level debug)."

let log_level_arg =
  Front.log_level_arg ~default:(Some Logs.Info)
    ~doc:"Log verbosity: debug, info, warning, error or quiet."

let domains_arg =
  let doc =
    "Worker domains for ADS construction and VO generation (default 1 = \
     sequential; results are bit-identical at any setting)."
  in
  Arg.(value & opt int 1 & info [ "domains"; "j" ] ~docv:"N" ~doc)

let setup_domains d =
  if d < 1 then begin
    prerr_endline "slicer: --domains must be >= 1";
    exit 1
  end;
  Parallel.set_domains d


let run_demo width seed records behavior value cond verbose log_level domains =
  Front.setup_logs log_level verbose;
  setup_domains domains;
  if width < 1 || width > Bitvec.max_width then `Error (false, "width out of range")
  else begin
    Printf.printf "Building a %d-record system (width %d, seed %S)...\n" records width seed;
    let rng = Drbg.create ~seed:(seed ^ ":data") in
    let db = Gen.uniform_records ~rng ~width records in
    let system = Protocol.setup ~width ~seed db in
    Protocol.set_cloud_behavior system behavior;
    let v = match value with Some v -> v | None -> 1 lsl (width - 1) in
    let query = Slicer_types.query v cond in
    Format.printf "Searching: (%d, %a)\n%!" v Slicer_types.pp_condition cond;
    let out = Protocol.search system query in
    Printf.printf "  tokens: %d   encrypted results: %dB   VOs: %dB\n"
      out.Protocol.so_token_count out.Protocol.so_result_bytes out.Protocol.so_vo_bytes;
    Printf.printf "  matches: [%s]\n" (String.concat "; " (List.sort compare out.Protocol.so_ids));
    if out.Protocol.so_token_count = 0 then
      Printf.printf "  on-chain verification: none - no token, nothing escrowed\n"
    else
      Printf.printf "  on-chain verification: %s (settlement gas %d)\n"
        (if out.Protocol.so_verified then "PASS - cloud paid" else "FAIL - user refunded")
        out.Protocol.so_gas_used;
    let expected = List.sort compare (Slicer_types.reference_search db query) in
    Printf.printf "  plaintext oracle agrees: %b\n"
      (expected = List.sort compare out.Protocol.so_ids || behavior <> Cloud.Honest);
    `Ok ()
  end

let demo_cmd =
  let info = Cmd.info "demo" ~doc:"End-to-end verifiable encrypted search on random data" in
  Cmd.v info
    Term.(
      ret
        (const run_demo $ width_arg $ seed_arg $ records_arg $ behavior_arg $ value_arg
       $ cond_arg $ verbose_arg $ log_level_arg $ domains_arg))

(* --- sore ------------------------------------------------------------- *)

let x_arg = Arg.(required & pos 0 (some int) None & info [] ~docv:"X" ~doc:"Query value.")
let y_arg = Arg.(required & pos 1 (some int) None & info [] ~docv:"Y" ~doc:"Encrypted value.")

let run_sore width seed x y =
  let rng = Drbg.create ~seed in
  let key = Sore.keygen ~rng in
  (try Bitvec.check_value ~width x; Bitvec.check_value ~width y
   with Invalid_argument m -> prerr_endline m; exit 1);
  let ct = Sore.encrypt ~rng key ~width y in
  Printf.printf "SORE.Encrypt(%d) -> %d slices of 16 bytes:\n" y width;
  List.iter (fun s -> Printf.printf "  %s\n" (Bytesutil.to_hex s)) ct.Sore.ct_slices;
  List.iter
    (fun (oc, label) ->
      let tk = Sore.token ~rng key ~width x oc in
      Printf.printf "SORE.Compare(ct(%d), token(%d %s .)) = %b\n" y x label (Sore.compare_ct ct tk))
    [ (Bitvec.Gt, ">"); (Bitvec.Lt, "<") ];
  Printf.printf "(ground truth: %d > %d is %b, %d < %d is %b)\n" x y (x > y) x y (x < y)

let sore_cmd =
  let info = Cmd.info "sore" ~doc:"SORE encrypt/compare playground" in
  Cmd.v info Term.(const run_sore $ width_arg $ seed_arg $ x_arg $ y_arg)

(* --- features / gas ----------------------------------------------------- *)

let features_cmd =
  let info = Cmd.info "features" ~doc:"Print the Table I feature matrix" in
  Cmd.v info Term.(const (fun () -> print_string (Features.render ())) $ const ())

let run_gas seed =
  let db = List.init 20 (fun i -> Slicer_types.record_of_value (Printf.sprintf "r%d" i) (i * 11 mod 256)) in
  let system = Protocol.setup ~width:8 ~seed db in
  let deploy_gas =
    match List.nth_opt (Ledger.blocks (Protocol.ledger system)) 1 with
    | Some b -> (match b.Block.receipts with r :: _ -> r.Vm.r_gas_used | [] -> 0)
    | None -> 0
  in
  Protocol.insert system [ Slicer_types.record_of_value "probe" 77 ];
  let out = Protocol.search system (Slicer_types.query 77 Slicer_types.Eq) in
  Printf.printf "deployment:   %7d gas\n" deploy_gas;
  Printf.printf "verification: %7d gas (equality search settlement)\n" out.Protocol.so_gas_used;
  Printf.printf "(paper, Rinkeby: deployment 745,346; insertion 29,144; verification 94,531)\n"

let gas_cmd =
  let info = Cmd.info "gas" ~doc:"Measure smart-contract gas costs on the simulated chain" in
  Cmd.v info Term.(const run_gas $ seed_arg)

(* --- stats and trace ------------------------------------------------------ *)

(* Both scrape one endpoint. A cluster is scraped through its router,
   whose Stats reply holds its own exposition and every shard's, and
   whose Traces reply drains every shard's ring with its own. *)
let host_arg = Front.host_arg ~doc:"Server or router address."
let port_arg = Front.port_arg ~doc:"Server or router TCP port."
let socket_arg = Front.socket_arg ~doc:"Connect to a Unix-domain socket at $(docv) instead of TCP."

(* One admin request on an unprovisioned connection: the admin path
   needs no keys, and works against an empty (pre-Build) server too. *)
let admin ~name host port socket request =
  match Net.Client.connect ~name ~provision:false (Front.endpoint host port socket) with
  | Error e -> Error (Net.Client.error_to_string e)
  | Ok c ->
    let r = request c in
    Net.Client.close c;
    Result.map_error Net.Client.error_to_string r

let run_stats host port socket json verbose log_level =
  Front.setup_logs log_level verbose;
  match admin ~name:"slicer-cli-stats" host port socket Net.Client.stats with
  | Ok (st_json, st_text) ->
    print_string (if json then st_json else st_text);
    `Ok ()
  | Error e -> `Error (false, e)

let stats_cmd =
  let info =
    Cmd.info "stats"
      ~doc:"Scrape live metrics from one slicer-server, or from a whole cluster \
            through its slicer-router (Prometheus text or JSON)"
  in
  let json =
    let doc = "Print the JSON snapshot instead of Prometheus text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  Cmd.v info
    Term.(
      ret (const run_stats $ host_arg $ port_arg $ socket_arg $ json $ verbose_arg
         $ log_level_arg))

let follow_arg =
  let doc = "Keep scraping every second and print traces as they complete." in
  Arg.(value & flag & info [ "follow"; "f" ] ~doc)

let min_ms_arg =
  let doc = "Only show traces at least $(docv) milliseconds long." in
  Arg.(value & opt float 0. & info [ "min-ms" ] ~docv:"N" ~doc)

let run_trace host port socket follow min_ms json verbose log_level =
  Front.setup_logs log_level verbose;
  (* Draining is destructive, so a span is seen by one pass only. *)
  let pass () =
    Result.map
      (fun spans ->
        List.filter (fun t -> Trace.Tree.duration_ms t >= min_ms) (Trace.Tree.assemble spans))
      (admin ~name:"slicer-cli-trace" host port socket Net.Client.traces)
  in
  let print_trees trees =
    if json then print_string (Trace.Tree.to_chrome trees)
    else List.iter (fun t -> print_string (Trace.Tree.render t)) trees;
    flush stdout
  in
  if follow then
    let rec loop () =
      (match pass () with
       | Ok [] -> ()
       | Ok trees -> print_trees trees
       | Error e -> Logs.warn (fun m -> m "trace scrape failed: %s" e));
      Unix.sleepf 1.;
      loop ()
    in
    loop ()
  else
    match pass () with
    | Error e -> `Error (false, e)
    | Ok [] when not json ->
      print_endline "(no completed traces)";
      `Ok ()
    | Ok trees ->
      print_trees trees;
      `Ok ()

let trace_cmd =
  let info =
    Cmd.info "trace"
      ~doc:"Drain completed request traces from one slicer-server, or from a whole \
            cluster through its slicer-router, and print each as an indented \
            cross-process timeline ($(b,--json) for Chrome trace_event output). \
            Servers publish traces when started with $(b,--trace-sample) or \
            $(b,--trace-slow-ms)."
  in
  let json =
    let doc = "Print Chrome trace_event JSON (load in about:tracing or Perfetto) \
               instead of timelines." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  Cmd.v info
    Term.(
      ret (const run_trace $ host_arg $ port_arg $ socket_arg $ follow_arg $ min_ms_arg
         $ json $ verbose_arg $ log_level_arg))

let () =
  let info = Cmd.info "slicer" ~version:"1.0.0" ~doc:"Verifiable encrypted numerical search (ICDCS'22 reproduction)" in
  exit (Cmd.eval (Cmd.group info [ demo_cmd; sore_cmd; features_cmd; gas_cmd; stats_cmd; trace_cmd ]))
