(* The Slicer cluster router.

     slicer-router --shard 127.0.0.1:7071 --shard 127.0.0.1:7072
     slicer-router --topology /var/lib/slicer/topology  (reuse a saved map)

   A stateless front end for a sharded cloud: splits owner shipments by
   shard key, fans search token sets to the owning shards in parallel
   and merges their claims, accumulators and receipts into one reply.
   It keeps no index, no accumulator and no reply cache — sub-request
   ids are derived deterministically from the client's, so the shards'
   idempotency caches absorb every retry. Runs until SIGINT/SIGTERM. *)

open Cmdliner

let shard_arg =
  let doc = "A shard endpoint (HOST:PORT or unix:PATH). Repeatable; the \
             order given defines shard ids, so keep it stable across \
             router restarts." in
  Arg.(value & opt_all string [] & info [ "shard" ] ~docv:"ADDR" ~doc)

let topology_arg =
  let doc = "Topology file. With --shard flags the parsed topology is \
             saved here; without them it is loaded from here, so a \
             restarted router comes back with the same shard map." in
  Arg.(value & opt (some string) None & info [ "topology" ] ~docv:"FILE" ~doc)

let instance_arg =
  let doc = "Instance name echoed in Welcome frames and metrics." in
  Arg.(value & opt string "router" & info [ "instance" ] ~docv:"NAME" ~doc)

let pool_arg =
  let doc = "Maximum idle pooled connections kept per shard." in
  Arg.(value & opt int 32 & info [ "pool" ] ~docv:"N" ~doc)

let attempts_arg =
  let doc = "Transport attempts per shard sub-request before the search \
             is refused as busy." in
  Arg.(value & opt int 3 & info [ "attempts" ] ~docv:"N" ~doc)

let resolve_topology shards topology_file =
  match (shards, topology_file) with
  | [], None -> Error "no shards: pass --shard ADDR (repeatable) or --topology FILE"
  | [], Some path -> Cluster.Topology.load ~path
  | addrs, file ->
    let rec parse acc = function
      | [] -> Ok (Cluster.Topology.create (List.rev acc))
      | a :: rest ->
        (match Cluster.Topology.endpoint_of_string a with
         | Ok ep -> parse (ep :: acc) rest
         | Error _ as err -> err)
    in
    (match parse [] addrs with
     | Error _ as err -> err
     | Ok topo ->
       Option.iter (fun path -> Cluster.Topology.save ~path topo) file;
       Ok topo)

let run serving shards topology_file instance pool attempts =
  Obs.set_instance instance;
  match Front.prepare serving with
  | Error e -> `Error (false, e)
  | Ok () ->
    if pool < 1 then `Error (false, "--pool must be >= 1")
    else if attempts < 1 then `Error (false, "--attempts must be >= 1")
    else
      match resolve_topology shards topology_file with
      | Error e -> `Error (false, e)
      | Ok topo ->
        let router =
          Cluster.Router.create
            ~config:
              { Cluster.Router.pool;
                client = { Net.Client.default_config with Net.Client.max_attempts = attempts }
              }
            ~instance topo
        in
        Printf.printf "routing %d shards:\n" (Cluster.Topology.shards topo);
        List.iteri
          (fun i ep -> Printf.printf "  shard %d: %s\n" i (Cluster.Topology.endpoint_to_string ep))
          (Cluster.Topology.endpoints topo);
        Front.serve serving (Cluster.Router.handle router) ~verb:"routed" ~tick:ignore;
        Cluster.Router.close router;
        `Ok ()

let cmd =
  let info =
    Cmd.info "slicer-router" ~version:"1.0.0"
      ~doc:"Stateless front end for a sharded Slicer cluster (framed RPC fan-out)"
  in
  Cmd.v info
    Term.(
      ret
        (const run
        $ Front.serving_term ~what:"routed request"
        $ shard_arg $ topology_arg $ instance_arg $ pool_arg $ attempts_arg))

let () = exit (Cmd.eval cmd)
