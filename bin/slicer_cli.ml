(* The slicer command-line tool.

     slicer demo     - end-to-end verifiable search on random data
     slicer sore     - SORE encrypt/compare playground
     slicer features - Table I feature matrix
     slicer gas      - live gas costs on the simulated chain
     slicer stats    - scrape a running slicer-server's metrics

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

(* --- stats ------------------------------------------------------------- *)

let host_arg = Front.host_arg ~doc:"Server address."
let port_arg = Front.port_arg ~doc:"Server TCP port."
let socket_arg = Front.socket_arg ~doc:"Connect to a Unix-domain socket at $(docv) instead of TCP."

let json_arg =
  let doc = "Print the JSON snapshot instead of Prometheus text." in
  Arg.(value & flag & info [ "json" ] ~doc)

let addrs_arg =
  let doc = "Scrape $(docv) (HOST:PORT or unix:PATH). Repeatable: given \
             several — e.g. every shard of a cluster plus its router — \
             prints one merged view, each member's series kept apart by \
             its instance label." in
  Arg.(value & opt_all string [] & info [ "addr"; "a" ] ~docv:"ADDR" ~doc)

(* One scrape. [~provision:false] — the admin path needs no keys, and
   works against an empty (pre-Build) server too. *)
let scrape endpoint =
  match Net.Client.connect ~name:"slicer-cli-stats" ~provision:false endpoint with
  | Error e -> Error (Net.Client.error_to_string e)
  | Ok c ->
    let r = Net.Client.stats c in
    Net.Client.close c;
    (match r with
     | Ok snap -> Ok snap
     | Error e -> Error (Net.Client.error_to_string e))

let parse_endpoints host port socket addrs =
  match addrs with
  | [] ->
    Ok [ ("", Front.endpoint host port socket) ]
  | addrs ->
    let rec parse acc = function
      | [] -> Ok (List.rev acc)
      | a :: rest ->
        (match Cluster.Topology.endpoint_of_string a with
         | Ok ep -> parse ((a, ep) :: acc) rest
         | Error e -> Error e)
    in
    parse [] addrs

let run_stats host port socket json addrs verbose log_level =
  Front.setup_logs log_level verbose;
  match parse_endpoints host port socket addrs with
  | Error e -> `Error (false, e)
  | Ok [ (_, endpoint) ] ->
    (match scrape endpoint with
     | Ok (st_json, st_text) ->
       print_string (if json then st_json else st_text);
       `Ok ()
     | Error e -> `Error (false, e))
  | Ok endpoints ->
    (* Merged cluster view: a failed member is reported inline so one
       dead shard doesn't hide the rest of the fleet. *)
    let results = List.map (fun (addr, ep) -> (addr, scrape ep)) endpoints in
    if json then
      (* One valid JSON array keyed by instance — addresses and error
         strings escaped, unlike the ad-hoc concatenation this replaces. *)
      print_string
        (Cluster.Scrape.merged_stats_json
           (List.map (fun (addr, r) -> (addr, Result.map fst r)) results)
        ^ "\n")
    else
      List.iter
        (fun (addr, r) ->
          match r with
          | Ok (_, st_text) ->
            Printf.printf "# == %s ==\n" addr;
            print_string st_text
          | Error e -> Printf.printf "# == %s == scrape failed: %s\n" addr e)
        results;
    if List.for_all (fun (_, r) -> Result.is_ok r) results then `Ok ()
    else `Error (false, "one or more members failed to answer")

let stats_cmd =
  let info =
    Cmd.info "stats"
      ~doc:"Scrape live metrics from one slicer-server — or, with repeated \
            $(b,--addr), a whole cluster (Prometheus text or JSON)"
  in
  Cmd.v info
    Term.(
      ret (const run_stats $ host_arg $ port_arg $ socket_arg $ json_arg $ addrs_arg
         $ verbose_arg $ log_level_arg))

(* --- trace -------------------------------------------------------------- *)

let follow_arg =
  let doc = "Keep scraping every second and print traces as they complete." in
  Arg.(value & flag & info [ "follow"; "f" ] ~doc)

let min_ms_arg =
  let doc = "Only show traces at least $(docv) milliseconds long." in
  Arg.(value & opt float 0. & info [ "min-ms" ] ~docv:"N" ~doc)

let chrome_arg =
  let doc = "Write Chrome trace_event JSON to $(docv) (load in about:tracing \
             or Perfetto) instead of printing timelines." in
  Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"FILE" ~doc)

let scrape_traces endpoint =
  match Net.Client.connect ~name:"slicer-cli-trace" ~provision:false endpoint with
  | Error e -> Error (Net.Client.error_to_string e)
  | Ok c ->
    let r = Net.Client.traces c in
    Net.Client.close c;
    (match r with
     | Ok spans -> Ok spans
     | Error e -> Error (Net.Client.error_to_string e))

let run_trace host port socket addrs follow min_ms json chrome verbose log_level =
  Front.setup_logs log_level verbose;
  match parse_endpoints host port socket addrs with
  | Error e -> `Error (false, e)
  | Ok endpoints ->
    if follow && chrome <> None then
      `Error (false, "--follow and --chrome are mutually exclusive")
    else begin
      (* One pass: drain every member (a router additionally forwards
         the drain to its shards) and reassemble cross-process trees by
         trace id. Draining is destructive, so a span is only ever seen
         by one pass. *)
      let pass () =
        let spans, ok =
          List.fold_left
            (fun (spans, ok) (addr, ep) ->
              match scrape_traces ep with
              | Ok s -> (s @ spans, ok)
              | Error e ->
                Logs.warn (fun m -> m "%s: trace scrape failed: %s" addr e);
                (spans, false))
            ([], true) endpoints
        in
        let trees =
          List.filter
            (fun t -> Trace.Tree.duration_ms t >= min_ms)
            (Trace.Tree.assemble spans)
        in
        (trees, ok)
      in
      let print_trees trees =
        if json then print_string (Trace.Tree.to_chrome trees)
        else List.iter (fun t -> print_string (Trace.Tree.render t)) trees;
        flush stdout
      in
      if follow then
        let rec loop () =
          let trees, _ = pass () in
          if trees <> [] then print_trees trees;
          Unix.sleepf 1.;
          loop ()
        in
        loop ()
      else begin
        let trees, ok = pass () in
        (match chrome with
         | Some file ->
           Obs.Export.write_file file (Trace.Tree.to_chrome trees);
           Printf.printf "wrote %d trace(s) to %s\n" (List.length trees) file
         | None ->
           if trees = [] && not json then print_endline "(no completed traces)"
           else print_trees trees);
        if ok then `Ok () else `Error (false, "one or more members failed to answer")
      end
    end

let trace_cmd =
  let info =
    Cmd.info "trace"
      ~doc:"Drain completed request traces from one slicer-server or router — \
            or, with repeated $(b,--addr), a whole cluster — and print each \
            as an indented cross-process timeline ($(b,--json)/$(b,--chrome) \
            for Chrome trace_event output). Servers publish traces when \
            started with $(b,--trace-sample) or $(b,--trace-slow-ms)."
  in
  Cmd.v info
    Term.(
      ret (const run_trace $ host_arg $ port_arg $ socket_arg $ addrs_arg $ follow_arg
         $ min_ms_arg $ json_arg $ chrome_arg $ verbose_arg $ log_level_arg))

let () =
  let info = Cmd.info "slicer" ~version:"1.0.0" ~doc:"Verifiable encrypted numerical search (ICDCS'22 reproduction)" in
  exit (Cmd.eval (Cmd.group info [ demo_cmd; sore_cmd; features_cmd; gas_cmd; stats_cmd; trace_cmd ]))
