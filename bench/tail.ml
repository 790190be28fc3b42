(* The flat-tail guard: the event loop polls every socket it owns on
   every tick, so a cost per open connection shows as tail latency once
   many connections sit idle. One process runs a server over a small
   seeded Build and one client that times a series of Pings, then
   the same series again while a {!Net.Client.Swarm} holds 1000 more
   keep-alive connections open. No fork, no child process.

   Guards: every swarm connection is confirmed; the server's
   [slicer_net_open_connections] gauge counts them; the swarm is still
   whole after the series; and p99 under the swarm stays within
   max(2 x baseline p99, 25 ms). The floor absorbs scheduler noise on a
   shared host, where a sub-millisecond baseline p99 can double between
   runs; a per-socket cost of 20 us makes every tick 20 ms longer and
   clears it. Each series also prints the p99 of the event loop's wait
   for the runtime lock ([slicer_net_loop_lock_wait_seconds]), so a
   failing guard says whether that wait was the cause. *)

let swarm_size = 1000
let pings = 1000
let floor_s = 0.025

let lock_wait = Obs.histogram "slicer_net_loop_lock_wait_seconds"

let fail fmt = Printf.ksprintf failwith ("tail: " ^^ fmt)

(* p99, in seconds, of what [h] recorded between two snapshots. *)
let p99_since (before : Obs.Histogram.snapshot) h =
  let after = Obs.Histogram.snapshot h in
  let earlier bound =
    Array.fold_left (fun n (b, c) -> if b = bound then c else n) 0 before.sn_buckets
  in
  let delta =
    { after with
      Obs.Histogram.sn_count = after.sn_count - before.sn_count;
      sn_buckets = Array.map (fun (b, c) -> (b, c - earlier b)) after.sn_buckets }
  in
  Obs.Histogram.quantile delta 0.99 /. 1e9

(* One Stats scrape: the value of an unlabelled gauge or counter. *)
let scraped c name =
  match Net.Client.stats c with
  | Error e -> fail "stats: %s" (Net.Client.error_to_string e)
  | Ok (_, text) ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.split_on_char ' ' line with
           | [ n; v ] when n = name -> int_of_string_opt v
           | _ -> None)
    |> Option.value ~default:0

(* [pings] timed round trips; returns (p99, lock-wait p99) in seconds. *)
let series c =
  let lw0 = Obs.Histogram.snapshot lock_wait in
  let rtts =
    Array.init pings (fun _ ->
        match Net.Client.ping c with
        | Ok rtt -> rtt
        | Error e -> fail "ping: %s" (Net.Client.error_to_string e))
  in
  Array.sort compare rtts;
  (Obs.Summary.percentile rtts 99., p99_since lw0 lock_wait)

let report label (p99, lw) =
  Printf.printf "  %-22s p99 %6.2f ms   loop lock wait p99 %6.3f ms\n%!" label (p99 *. 1e3)
    (lw *. 1e3)

let run () =
  Bench_common.header "Flat tail under idle sockets (target: tail)";
  let width = 6 in
  let db = Gen.uniform_records ~rng:(Drbg.create ~seed:"tail-data") ~width 40 in
  let service = Net.Service.create () in
  let warms () = Obs.counter_value "slicer_net_background_warms_total" in
  let warms0 = warms () in
  (match
     Net.Service.handle service (Net.Client.seeded_build ~width ~payment:1000 ~seed:"tail" db)
   with
   | Net.Wire.Accepted _ -> ()
   | _ -> fail "the seeding Build was refused");
  (* The Build's witness warm runs on a background thread: no Ping is
     timed until it has finished. *)
  let deadline = Unix.gettimeofday () +. 120. in
  while warms () <= warms0 do
    if Unix.gettimeofday () > deadline then fail "the background warm did not finish";
    Unix.sleepf 0.01
  done;
  let server = Net.Server.start (Net.Service.handle service) in
  Fun.protect ~finally:(fun () -> Net.Server.stop server) @@ fun () ->
  let endpoint = Net.Server.endpoint server in
  let c =
    match Net.Client.connect ~name:"tail" ~provision:false endpoint with
    | Ok c -> c
    | Error e -> fail "connect: %s" (Net.Client.error_to_string e)
  in
  Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
  Printf.printf "%d Pings per series, then again under %d idle keep-alive connections\n%!"
    pings swarm_size;
  let base = series c in
  report "baseline" base;
  let sw = Net.Client.Swarm.open_ ~timeout:120. ~n:swarm_size endpoint in
  Fun.protect ~finally:(fun () -> Net.Client.Swarm.close sw) @@ fun () ->
  let live = Net.Client.Swarm.live sw in
  Printf.printf "  swarm: %d/%d connections confirmed\n%!" live swarm_size;
  if live < swarm_size then fail "only %d of %d swarm connections confirmed" live swarm_size;
  let open_conns = scraped c "slicer_net_open_connections" in
  if open_conns < swarm_size then
    fail "the server reports %d open connections, expected >= %d" open_conns swarm_size;
  let under = series c in
  report (Printf.sprintf "under %d sockets" swarm_size) under;
  (* One collecting tick: a member the server closed reads EOF here and
     leaves the swarm. *)
  Net.Client.Swarm.tick ~timeout_ms:100 sw;
  let live_after = Net.Client.Swarm.live sw in
  Printf.printf "  swarm after the series: %d/%d still live\n%!" live_after swarm_size;
  (* The bound first: a series slowed past the server's 30 s idle sweep
     also loses the swarm, and the latency is the cause to name. *)
  let bound = Float.max (2. *. fst base) floor_s in
  if fst under > bound then
    fail "p99 %.2f ms under %d sockets exceeds max(2 x baseline p99 %.2f ms, %.0f ms)"
      (fst under *. 1e3) swarm_size (fst base *. 1e3) (floor_s *. 1e3);
  if live_after < swarm_size then fail "swarm decayed to %d/%d" live_after swarm_size
