let log_src = Logs.Src.create "slicer.net.server" ~doc:"Slicer network server"

module Log = (val Logs.src_log log_src : Logs.LOG)

let c_busy = Obs.counter ~help:"requests refused Busy at admission" "slicer_net_busy_refusals_total"
let c_conns = Obs.counter ~help:"connections accepted" "slicer_net_connections_total"
let g_inflight = Obs.gauge ~help:"requests queued or executing on the pool" "slicer_net_inflight"
let g_open = Obs.gauge ~help:"sockets currently owned by the event loop" "slicer_net_open_connections"

let g_qwrite =
  Obs.gauge ~help:"unsent reply bytes across all connections" "slicer_net_queued_write_bytes"

let h_qdepth =
  Obs.histogram ~help:"dispatch-pool queue depth at admission" ~units:Obs.Histogram.Raw
    "slicer_net_worker_queue_depth"

let h_lock_wait =
  Obs.histogram ~help:"event loop's wait for the runtime lock after poll(2) returns ready"
    "slicer_net_loop_lock_wait_seconds"

let c_handshake_drops =
  Obs.counter ~help:"connections dropped before a first valid frame"
    "slicer_net_handshake_drops_total"

let c_throttles =
  Obs.counter ~help:"replies the peer's socket could not take whole"
    "slicer_net_backpressure_throttles_total"

let c_idle_kicks = Obs.counter ~help:"connections swept for idleness" "slicer_net_idle_kicks_total"

let c_conn_overflow =
  Obs.counter ~help:"accepts closed at the max-conns cap" "slicer_net_conn_limit_drops_total"

(* Shared by name with [Frame]'s live-transport counters and the
   unparseable-request reject path. *)
let c_rejects = Obs.counter "slicer_net_decode_rejects_total"
let c_frames_in = Obs.counter "slicer_net_frames_in_total"
let c_bytes_in = Obs.counter "slicer_net_bytes_in_total"
let c_frames_out = Obs.counter "slicer_net_frames_out_total"
let c_bytes_out = Obs.counter "slicer_net_bytes_out_total"

type endpoint = Tcp of string * int | Unix_socket of string

type config = {
  endpoint : endpoint;
  read_timeout : float;
  max_inflight : int;
  max_conns : int;
}

let default_config =
  { endpoint = Tcp ("127.0.0.1", 0); read_timeout = 30.; max_inflight = 64; max_conns = 4096 }

(* Connections the kernel has completed but the loop not yet accepted. *)
let backlog = 512

(* Dispatch threads. A connection has at most one request in the pool,
   so handlers overlap only across connections; that still pays,
   because a router's handler blocks on its shard sockets and a durable
   Search waits for its fsync outside the service lock. *)
let workers = 4

(* All [conn] state belongs to the loop thread. A connection is busy
   from parsing a request until its reply is fully written: first while
   the pool has the request, then while the socket takes the reply.
   Only an idle connection is read or parsed. *)
type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_dec : Frame.Decoder.t;
  mutable c_established : bool; (* one valid frame seen *)
  mutable c_closing : bool;     (* answer the request in hand, then close *)
  mutable c_closed : bool;
  mutable c_last : float;       (* monotonic: last complete frame / write progress *)
  mutable c_in_pool : bool;     (* its request is queued or executing *)
  mutable c_reply : string;     (* the framed reply being written *)
  mutable c_woff : int;         (* bytes of [c_reply] already written *)
}

let unsent conn = String.length conn.c_reply - conn.c_woff
let idle conn = (not conn.c_in_pool) && unsent conn = 0

(* A request is decoded by its worker straight from the connection's
   arena, through its frame's view. Nothing writes those bytes
   meanwhile: a busy connection is neither read nor parsed until its
   reply is written (a frame pipelined behind this one waits unparsed),
   and parsing a frame never writes the arena. *)
type job = { j_conn : int; j_view : Frame.Decoder.view }

type t = {
  config : config;
  (* What to do with one decoded request. Usually [Service.handle svc],
     but the router front end plugs its fan-out dispatcher in here and
     reuses the whole event loop unchanged. *)
  handler : Wire.request -> Wire.response;
  listener : Unix.file_descr;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  (* Guards everything workers touch: the job queue, completions, the
     shared counters. The loop holds it only for short transfers. *)
  lock : Mutex.t;
  job_cond : Condition.t;
  jobs : job Queue.t;
  mutable jobs_active : int; (* queued + executing *)
  mutable completions : (int * string) list; (* conn, framed reply *)
  mutable running : bool;
  mutable served_conns : int;
  mutable served_reqs : int;
  (* Loop-thread-only state. *)
  conns : (int, conn) Hashtbl.t;
  mutable next_conn : int;
  mutable loop_thread : Thread.t option;
  mutable pool : Thread.t list;
  mutable stopped : bool;
}

(* IPv4/IPv6-capable resolution through getaddrinfo. Called once per
   bind or connect, before any socket exists — the accept path never
   resolves anything. *)
let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ ->
    let hints = [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ] in
    let rec pick = function
      | { Unix.ai_addr = Unix.ADDR_INET (addr, _); _ } :: _ -> addr
      | _ :: rest -> pick rest
      | [] -> failwith ("cannot resolve host " ^ host)
    in
    (match Unix.getaddrinfo host "" hints with
     | [] -> failwith ("cannot resolve host " ^ host)
     | infos -> pick infos)

let sockaddr_of_endpoint = function
  | Tcp (host, port) -> Unix.ADDR_INET (resolve_host host, port)
  | Unix_socket path -> Unix.ADDR_UNIX path

let bind_endpoint ep =
  let addr = sockaddr_of_endpoint ep in
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (match ep with
   | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
   | Unix_socket path -> (try Unix.unlink path with Unix.Unix_error _ -> ()));
  (try
     Unix.bind fd addr;
     Unix.listen fd backlog
   with e -> Unix.close fd; raise e);
  fd

let bound_port fd =
  match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | Unix.ADDR_UNIX _ -> 0

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let now () = Obs.Clock.now ()

(* --- loop-side connection plumbing ------------------------------------- *)

let close_conn t conn =
  if not conn.c_closed then begin
    conn.c_closed <- true;
    Hashtbl.remove t.conns conn.c_id;
    Obs.Gauge.add g_open (-1);
    if unsent conn > 0 then Obs.Gauge.add g_qwrite (-unsent conn);
    close_quietly conn.c_fd
  end

(* Write what the kernel takes of the pending reply, and let go of it
   once it has all left. *)
let flush_writes t conn =
  let rec go () =
    let len = unsent conn in
    if len = 0 then begin
      conn.c_reply <- "";
      conn.c_woff <- 0
    end
    else if not conn.c_closed then
      match Unix.write_substring conn.c_fd conn.c_reply conn.c_woff len with
      | n ->
        conn.c_woff <- conn.c_woff + n;
        conn.c_last <- now ();
        Obs.Gauge.add g_qwrite (-n);
        Obs.Counter.add c_bytes_out n;
        go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> close_conn t conn
  in
  go ()

(* [framed] becomes the connection's one pending reply. What the socket
   cannot take now waits for POLLOUT, and the connection is not read
   until it has left. *)
let send t conn framed =
  conn.c_reply <- framed;
  conn.c_woff <- 0;
  Obs.Gauge.add g_qwrite (String.length framed);
  Obs.Counter.incr c_frames_out;
  flush_writes t conn;
  if (not conn.c_closed) && unsent conn > 0 then Obs.Counter.incr c_throttles

let refusal code detail = Wire.Refused { code; detail }

(* A reply is framed in one pass from its pieces: no payload string
   is built only to be copied into the frame. The process's own Stats
   is framed from the registry's buffer while the render lock holds it. *)
let frame = function
  | Wire.Stats_live ->
    Obs.Export.exposition (fun buf ~json_len ->
        let len, write = Wire.stats_payload buf ~json_len in
        Frame.encode_with ~tag:Wire.response_tag len write)
  | resp -> Frame.encode_sized ~tag:Wire.response_tag (Wire.response_sized resp)

let respond t conn resp = send t conn (frame resp)

(* One parsed frame: hand it to the pool or refuse it inline
   (admission, bad tag). *)
let dispatch t conn (view : Frame.Decoder.view) =
  if view.Frame.Decoder.v_tag <> Wire.request_tag then begin
    conn.c_closing <- true;
    respond t conn (refusal Wire.Bad_request "unexpected frame tag")
  end
  else begin
    Mutex.lock t.lock;
    let admitted = t.jobs_active < t.config.max_inflight in
    if admitted then begin
      t.jobs_active <- t.jobs_active + 1;
      Obs.Gauge.set g_inflight t.jobs_active;
      Obs.Histogram.record h_qdepth (Queue.length t.jobs);
      Queue.push { j_conn = conn.c_id; j_view = view } t.jobs;
      Condition.signal t.job_cond
    end;
    Mutex.unlock t.lock;
    if admitted then conn.c_in_pool <- true
    else begin
      Obs.Counter.incr c_busy;
      respond t conn
        (refusal Wire.Busy (Printf.sprintf "over %d requests in flight" t.config.max_inflight))
    end
  end

(* Runs whenever the connection may have turned idle: a closing one
   closes, any other answers the next complete frame already buffered.
   It stops at a request handed to the pool or a reply the socket could
   not take whole; with no complete frame left, the loop polls for more
   bytes. This is the pre-handshake state machine too: before the first
   valid frame, any framing violation drops the socket silently; after
   it, the stream gets a structured refusal and then a close. *)
let next_request t conn =
  let rec go () =
    if (not conn.c_closed) && idle conn then
      if conn.c_closing then close_conn t conn
      else
        match Frame.Decoder.next conn.c_dec with
        | Ok None -> ()
        | Ok (Some view) ->
          conn.c_established <- true;
          conn.c_last <- now ();
          Obs.Counter.incr c_frames_in;
          dispatch t conn view;
          go ()
        | Error e ->
          if conn.c_established then begin
            Obs.Counter.incr c_rejects;
            Log.debug (fun m -> m "conn %d: %s" conn.c_id (Frame.error_to_string e));
            conn.c_closing <- true;
            respond t conn (refusal Wire.Bad_request (Frame.error_to_string e));
            go ()
          end
          else begin
            (* Protocol violator that never spoke a valid frame: no
               oracle, no reply — just drop it. *)
            Obs.Counter.incr c_handshake_drops;
            close_conn t conn
          end
  in
  go ()

(* Per readable event: read straight into the decoder arena until a
   request is parsed, the socket drains or a fairness budget runs out. *)
let read_input t conn =
  let budget = ref (256 * 1024) in
  let rec go () =
    if (not conn.c_closed) && idle conn && !budget > 0 then begin
      let buf, off = Frame.Decoder.space conn.c_dec 4096 in
      let room = Frame.Decoder.room conn.c_dec in
      match Unix.read conn.c_fd buf off room with
      | 0 ->
        (* Peer sent FIN. An idle connection has answered every complete
           frame it buffered, so nothing is owed. *)
        close_conn t conn
      | n ->
        Frame.Decoder.commit conn.c_dec n;
        Obs.Counter.add c_bytes_in n;
        budget := !budget - n;
        next_request t conn;
        if n = room then go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> close_conn t conn
    end
  in
  go ()

(* Accept in batches until the listener drains; past [max_conns] the
   socket is closed immediately (the cap is on loop-owned state, not
   the SYN backlog). *)
let accept_batch t =
  let rec go budget =
    if budget > 0 then
      match Unix.accept t.listener with
      | fd, _ ->
        if Hashtbl.length t.conns >= t.config.max_conns then begin
          Obs.Counter.incr c_conn_overflow;
          close_quietly fd
        end
        else begin
          Unix.set_nonblock fd;
          (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
          let id = t.next_conn in
          t.next_conn <- id + 1;
          t.served_conns <- t.served_conns + 1;
          Obs.Counter.incr c_conns;
          Obs.Gauge.add g_open 1;
          let conn =
            { c_id = id;
              c_fd = fd;
              c_dec = Frame.Decoder.create ();
              c_established = false;
              c_closing = false;
              c_closed = false;
              c_last = now ();
              c_in_pool = false;
              c_reply = "";
              c_woff = 0 }
          in
          Hashtbl.replace t.conns id conn
        end;
        go (budget - 1)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error (e, _, _) ->
        if t.running then Log.err (fun m -> m "accept failed: %s" (Unix.error_message e))
  in
  go 128

(* Pool completions: send each reply, then move its connection on. *)
let handle_completions t =
  Mutex.lock t.lock;
  let done_ = t.completions in
  t.completions <- [];
  Mutex.unlock t.lock;
  List.iter
    (fun (conn_id, framed) ->
      match Hashtbl.find_opt t.conns conn_id with
      | None -> () (* connection died while the request executed *)
      | Some conn ->
        conn.c_in_pool <- false;
        send t conn framed;
        next_request t conn)
    (List.rev done_)

(* The idle sweep doubles as the slowloris kill: [c_last] only advances
   on complete frames and on write progress, so a byte-trickler times
   out exactly like a silent peer. A busy connection is never swept —
   the peer is waiting on us. *)
let sweep t t_now =
  let victims = ref [] in
  Hashtbl.iter
    (fun _ conn ->
      if idle conn && t_now -. conn.c_last > t.config.read_timeout then
        victims := conn :: !victims)
    t.conns;
  List.iter
    (fun conn ->
      Obs.Counter.incr c_idle_kicks;
      Log.debug (fun m -> m "conn %d: idle for %.1fs, kicked" conn.c_id t.config.read_timeout);
      close_conn t conn)
    !victims

let drain_wake t =
  let scratch = Bytes.create 256 in
  let rec go () =
    match Unix.read t.wake_r scratch 0 (Bytes.length scratch) with
    | n when n = Bytes.length scratch -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  go ()

let wake t =
  let b = Bytes.make 1 '!' in
  try ignore (Unix.write t.wake_w b 0 1)
  with Unix.Unix_error _ -> () (* full pipe already wakes the loop *)

(* --- the event loop ----------------------------------------------------- *)

let event_loop t =
  let pset = Poll.create () in
  let order = ref [] in
  while t.running do
    Poll.clear pset;
    Poll.add pset t.wake_r ~read:true ~write:false;
    Poll.add pset t.listener ~read:true ~write:false;
    order := [];
    Hashtbl.iter
      (fun _ conn ->
        Poll.add pset conn.c_fd ~read:(idle conn) ~write:(unsent conn > 0);
        order := conn :: !order)
      t.conns;
    let conns_in_order = Array.of_list (List.rev !order) in
    (match Poll.wait pset ~timeout_ms:200 with
     | -1 | 0 -> ()
     | _ ->
       Obs.Histogram.record h_lock_wait (Poll.since_return_ns ());
       if Poll.is_readable (Poll.revents pset 0) then drain_wake t;
       if t.running && Poll.is_readable (Poll.revents pset 1) then accept_batch t;
       Array.iteri
         (fun i conn ->
           let r = Poll.revents pset (i + 2) in
           if not conn.c_closed then begin
             if Poll.is_writable r then begin
               flush_writes t conn;
               next_request t conn
             end;
             if (not conn.c_closed) && Poll.is_readable r then read_input t conn;
             if (not conn.c_closed) && Poll.is_error r && not (Poll.is_readable r) then
               (* Hard error with nothing to read: the peer is gone. *)
               close_conn t conn
           end)
         conns_in_order);
    handle_completions t;
    sweep t (now ())
  done;
  (* Teardown on the loop thread: every socket belongs to it. *)
  let all = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
  List.iter (fun c -> close_conn t c) all;
  close_quietly t.listener

(* --- the worker pool ----------------------------------------------------- *)

let worker_loop t =
  let rec go () =
    Mutex.lock t.lock;
    while t.running && Queue.is_empty t.jobs do
      Condition.wait t.job_cond t.lock
    done;
    if Queue.is_empty t.jobs then Mutex.unlock t.lock (* stopping *)
    else begin
      let { j_conn; j_view = { Frame.Decoder.v_buf; v_off; v_len; _ } } = Queue.pop t.jobs in
      Mutex.unlock t.lock;
      (* Nothing holds the arena past the decode, so a Build's frame can
         be collected while the handler runs. *)
      let resp =
        match Wire.decode_request_at (Bytes.unsafe_to_string v_buf) ~off:v_off ~len:v_len with
        | None ->
          (* Frame checksum passed: a peer speaking a different dialect,
             not line noise. Refuse, keep the connection. *)
          Obs.Counter.incr c_rejects;
          refusal Wire.Bad_request "unparseable request"
        | Some req ->
          let dispatch () =
            try t.handler req
            with exn ->
              Log.err (fun m -> m "handler raised: %s" (Printexc.to_string exn));
              refusal Wire.Internal (Printexc.to_string exn)
          in
          (* The worker span roots the request's trace in this process
             (joining an upstream context carried on the wire), so the
             handoff from the event loop is visible in timelines. Admin
             and handshake frames stay untraced. *)
          (match req with
           | Wire.Search _ | Wire.Build _ | Wire.Insert _ ->
             Trace.root ?remote:(Wire.request_trace req) "net.worker" dispatch
           | _ -> dispatch ())
      in
      let framed = frame resp in
      Mutex.lock t.lock;
      t.jobs_active <- t.jobs_active - 1;
      t.served_reqs <- t.served_reqs + 1;
      Obs.Gauge.set g_inflight t.jobs_active;
      t.completions <- (j_conn, framed) :: t.completions;
      Mutex.unlock t.lock;
      wake t;
      go ()
    end
  in
  go ()

(* --- lifecycle ----------------------------------------------------------- *)

let start ?(config = default_config) ?listener handler =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listener = match listener with Some fd -> fd | None -> bind_endpoint config.endpoint in
  Unix.set_nonblock listener;
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    { config;
      handler;
      listener;
      wake_r;
      wake_w;
      lock = Mutex.create ();
      job_cond = Condition.create ();
      jobs = Queue.create ();
      jobs_active = 0;
      completions = [];
      running = true;
      served_conns = 0;
      served_reqs = 0;
      conns = Hashtbl.create 1024;
      next_conn = 0;
      loop_thread = None;
      pool = [];
      stopped = false }
  in
  t.pool <- List.init workers (fun _ -> Thread.create (fun () -> worker_loop t) ());
  t.loop_thread <- Some (Thread.create (fun () -> event_loop t) ());
  Log.info (fun m ->
      m "listening (%s), %d workers"
        (match config.endpoint with
         | Tcp (h, _) -> Printf.sprintf "%s:%d" h (bound_port listener)
         | Unix_socket p -> p)
        workers);
  t

let port t = bound_port t.listener

let endpoint t =
  match t.config.endpoint with
  | Tcp (h, _) -> Tcp (h, port t)
  | Unix_socket p -> Unix_socket p

let connections_served t = t.served_conns
let requests_served t = t.served_reqs
let open_connections t = Hashtbl.length t.conns

let stop t =
  let first =
    Mutex.lock t.lock;
    let first = not t.stopped in
    if first then begin
      t.stopped <- true;
      t.running <- false;
      Condition.broadcast t.job_cond
    end;
    Mutex.unlock t.lock;
    first
  in
  if first then begin
    wake t;
    (match t.loop_thread with Some th -> Thread.join th | None -> ());
    (* Workers drain any queued jobs (their completions are dropped —
       the sockets are gone), then exit on the cleared flag. *)
    Mutex.lock t.lock;
    Condition.broadcast t.job_cond;
    Mutex.unlock t.lock;
    List.iter Thread.join t.pool;
    (* Only now is nobody left to write the wake pipe — closing earlier
       would race a worker's wake against fd-number reuse. *)
    close_quietly t.wake_r;
    close_quietly t.wake_w;
    (match t.config.endpoint with
     | Unix_socket path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
     | Tcp _ -> ())
  end
