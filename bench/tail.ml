(* The flat-tail guard: the event loop polls every socket it owns on
   every tick, so a cost per open connection shows as tail latency once
   many connections sit idle. One process runs a server over a small
   seeded Build and one client that times a series of Pings, then
   the same series again while 1000 more plain {!Net.Client}s hold
   their connections open. No fork, no child process: both ends of
   every socket live in it, so about half the idle clients' sockets are
   numbered past FD_SETSIZE, and their Pings wait through poll(2)
   there.

   Guards: every idle connection is confirmed by one Ping; the server's
   [slicer_net_open_connections] gauge counts them and the timing
   client, before the series and still after it; and p99 under the
   idle connections stays within max(2 x baseline p99, 25 ms). The
   floor absorbs scheduler noise on a shared host, where a
   sub-millisecond baseline p99 can double between runs; a per-socket
   cost of 20 us makes every tick 20 ms longer and clears it. Each
   series also prints the p99 of the event loop's wait for the runtime
   lock ([slicer_net_loop_lock_wait_seconds]), so a failing guard says
   whether that wait was the cause. *)

let idle_conns = 1000
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
  Printf.printf "%d Pings per series, then again under %d idle connections\n%!" pings
    idle_conns;
  let base = series c in
  report "baseline" base;
  let idle =
    List.init idle_conns (fun i ->
        match
          Net.Client.connect ~name:(Printf.sprintf "tail-idle-%d" i) ~provision:false endpoint
        with
        | Ok c -> c
        | Error e -> fail "connect: %s" (Net.Client.error_to_string e))
  in
  Fun.protect ~finally:(fun () -> List.iter Net.Client.close idle) @@ fun () ->
  (* A plain client connects on its first request: one Ping each opens
     and confirms the connection. *)
  let confirmed = List.length (List.filter (fun c -> Result.is_ok (Net.Client.ping c)) idle) in
  Printf.printf "  idle: %d/%d connections confirmed\n%!" confirmed idle_conns;
  if confirmed < idle_conns then
    fail "only %d of %d idle connections confirmed" confirmed idle_conns;
  (* The server's own count, before the series and after it: every
     idle connection plus the timing client. *)
  let expected = idle_conns + 1 in
  let open_before = scraped c "slicer_net_open_connections" in
  let under = series c in
  report (Printf.sprintf "under %d sockets" idle_conns) under;
  let open_after = scraped c "slicer_net_open_connections" in
  Printf.printf "  server: %d open connections before the series, %d after (>= %d)\n%!"
    open_before open_after expected;
  (* The bound first: a loop slowed by a per-socket cost also keeps the
     connections idle past the server's 30 s sweep, and the latency is
     the cause to name. *)
  let bound = Float.max (2. *. fst base) floor_s in
  if fst under > bound then
    fail "p99 %.2f ms under %d sockets exceeds max(2 x baseline p99 %.2f ms, %.0f ms)"
      (fst under *. 1e3) idle_conns (fst base *. 1e3) (floor_s *. 1e3);
  if open_before < expected then
    fail "the server reports %d open connections, expected >= %d" open_before expected;
  if open_after < expected then
    fail "the server dropped to %d open connections, expected >= %d" open_after expected
