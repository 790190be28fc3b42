let log_src = Logs.Src.create "slicer.net.server" ~doc:"Slicer network server"

module Log = (val Logs.src_log log_src : Logs.LOG)

let c_busy = Obs.counter ~help:"requests refused Busy at admission" "slicer_net_busy_refusals_total"
let c_conns = Obs.counter ~help:"connections accepted" "slicer_net_connections_total"
let g_inflight = Obs.gauge ~help:"requests queued or executing on the pool" "slicer_net_inflight"
let g_open = Obs.gauge ~help:"sockets currently owned by the event loop" "slicer_net_open_connections"

let g_qwrite =
  Obs.gauge ~help:"reply bytes queued across all connections" "slicer_net_queued_write_bytes"

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
  Obs.counter ~help:"connections read-throttled on outbound backpressure"
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
  max_payload : int;
  max_inflight : int;
  backlog : int;
  max_conns : int;
  workers : int;
  max_queued_write : int;
}

let default_config =
  { endpoint = Tcp ("127.0.0.1", 0);
    read_timeout = 30.;
    max_payload = Frame.default_max_payload;
    max_inflight = 64;
    backlog = 512;
    max_conns = 4096;
    workers = 4;
    max_queued_write = 4 * 1024 * 1024 }

(* Per-connection pipelining depth: requests admitted but not yet
   flushed. Past this the connection stops being read, like the write
   cap — bounded state per peer no matter how fast it pipelines. *)
let max_pipeline = 256

(* All [conn] state belongs to the loop thread exclusively. *)
type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_dec : Frame.Decoder.t;
  mutable c_established : bool; (* one valid frame seen *)
  mutable c_closing : bool;     (* flush queued replies, then close *)
  mutable c_closed : bool;
  mutable c_throttled : bool;
  mutable c_last : float;       (* monotonic: last complete frame / flush progress *)
  mutable c_next_seq : int;     (* next request slot *)
  mutable c_next_send : int;    (* next slot to flush, in order *)
  c_done : (int, string) Hashtbl.t; (* completed slot -> framed reply *)
  mutable c_inflight : int;     (* slots assigned, not yet moved to the write queue *)
  c_wq : string Queue.t;
  mutable c_woff : int;         (* write offset into the head of c_wq *)
  mutable c_wbytes : int;
}

type job = { j_conn : int; j_seq : int; j_payload : string }

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
  mutable completions : (int * int * string) list; (* conn, seq, framed reply *)
  mutable running : bool;
  mutable served_conns : int;
  mutable served_reqs : int;
  (* Loop-thread-only state. *)
  conns : (int, conn) Hashtbl.t;
  mutable next_conn : int;
  mutable loop_thread : Thread.t option;
  mutable workers : Thread.t list;
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
     Unix.listen fd default_config.backlog
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
    conn.c_closing <- true;
    Hashtbl.remove t.conns conn.c_id;
    Obs.Gauge.add g_open (-1);
    if conn.c_wbytes > 0 then Obs.Gauge.add g_qwrite (-conn.c_wbytes);
    close_quietly conn.c_fd
  end

(* Write until the kernel buffer fills or the queue drains. Never
   parses — the read side re-engages from the loop once capacity
   frees. *)
let flush_writes t conn =
  if not conn.c_closed then begin
    let progress = ref false in
    let rec go () =
      if not (Queue.is_empty conn.c_wq) then begin
        let head = Queue.peek conn.c_wq in
        let len = String.length head - conn.c_woff in
        match Unix.write_substring conn.c_fd head conn.c_woff len with
        | n ->
          progress := true;
          conn.c_wbytes <- conn.c_wbytes - n;
          Obs.Gauge.add g_qwrite (-n);
          Obs.Counter.add c_bytes_out n;
          if n = len then begin
            ignore (Queue.pop conn.c_wq);
            conn.c_woff <- 0;
            go ()
          end
          else conn.c_woff <- conn.c_woff + n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error _ -> close_conn t conn
      end
    in
    go ();
    if !progress then conn.c_last <- now ();
    if conn.c_closing && conn.c_inflight = 0 && Queue.is_empty conn.c_wq then close_conn t conn
  end

(* Move every completed reply that is next in request order onto the
   write queue — pipelined responses leave in the order the requests
   arrived, however the pool finished them. *)
let flush_ready t conn =
  if not conn.c_closed then begin
    let moved = ref false in
    let rec go () =
      match Hashtbl.find_opt conn.c_done conn.c_next_send with
      | Some framed ->
        Hashtbl.remove conn.c_done conn.c_next_send;
        conn.c_next_send <- conn.c_next_send + 1;
        conn.c_inflight <- conn.c_inflight - 1;
        Queue.push framed conn.c_wq;
        conn.c_wbytes <- conn.c_wbytes + String.length framed;
        Obs.Gauge.add g_qwrite (String.length framed);
        Obs.Counter.incr c_frames_out;
        moved := true;
        go ()
      | None -> ()
    in
    go ();
    if !moved then flush_writes t conn
  end

let complete_local t conn seq resp =
  let framed = Frame.encode ~tag:Wire.response_tag (Wire.encode_response resp) in
  Hashtbl.replace conn.c_done seq framed;
  flush_ready t conn

let refusal code detail = Wire.Refused { code; detail }

(* One parsed frame: allocate its reply slot and either hand it to the
   pool or refuse it inline (admission, bad tag). *)
let dispatch t conn (view : Frame.Decoder.view) =
  let seq = conn.c_next_seq in
  conn.c_next_seq <- seq + 1;
  conn.c_inflight <- conn.c_inflight + 1;
  if view.Frame.Decoder.v_tag <> Wire.request_tag then begin
    complete_local t conn seq (refusal Wire.Bad_request "unexpected frame tag");
    conn.c_closing <- true
  end
  else begin
    let payload = Frame.Decoder.payload_string conn.c_dec view in
    let admitted =
      Mutex.lock t.lock;
      let ok = t.jobs_active < t.config.max_inflight in
      if ok then begin
        t.jobs_active <- t.jobs_active + 1;
        Obs.Gauge.set g_inflight t.jobs_active;
        Obs.Histogram.record h_qdepth (Queue.length t.jobs);
        Queue.push { j_conn = conn.c_id; j_seq = seq; j_payload = payload } t.jobs;
        Condition.signal t.job_cond
      end;
      Mutex.unlock t.lock;
      ok
    in
    if not admitted then begin
      Obs.Counter.incr c_busy;
      complete_local t conn seq
        (refusal Wire.Busy
           (Printf.sprintf "over %d requests in flight" t.config.max_inflight))
    end
  end

let below_caps t conn =
  conn.c_wbytes < t.config.max_queued_write && conn.c_inflight < max_pipeline

(* Parse every complete frame buffered in the arena, stopping at the
   backpressure caps (the unparsed bytes just wait). This is the
   pre-handshake state machine: before the first valid frame, any
   framing violation drops the socket silently; after it, the stream
   gets a structured refusal and then a close. *)
let process_buffered t conn =
  let rec go () =
    if (not conn.c_closed) && (not conn.c_closing) && below_caps t conn then begin
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
          let seq = conn.c_next_seq in
          conn.c_next_seq <- seq + 1;
          conn.c_inflight <- conn.c_inflight + 1;
          conn.c_closing <- true;
          complete_local t conn seq (refusal Wire.Bad_request (Frame.error_to_string e))
        end
        else begin
          (* Protocol violator that never spoke a valid frame: no
             oracle, no reply — just drop it. *)
          Obs.Counter.incr c_handshake_drops;
          close_conn t conn
        end
    end
  in
  go ()

(* Per readable event: read straight into the decoder arena until the
   socket drains (or a fairness budget runs out), parsing as we go. *)
let read_input t conn =
  let budget = ref (256 * 1024) in
  let rec go () =
    if (not conn.c_closed) && !budget > 0 && (not conn.c_closing) && below_caps t conn
    then begin
      let buf, off = Frame.Decoder.space conn.c_dec 4096 in
      let room = Frame.Decoder.room conn.c_dec in
      match Unix.read conn.c_fd buf off room with
      | 0 ->
        (* Peer sent FIN. Anything already pipelined still gets its
           replies; then the socket closes. *)
        conn.c_closing <- true;
        if conn.c_inflight = 0 && Queue.is_empty conn.c_wq then close_conn t conn
      | n ->
        Frame.Decoder.commit conn.c_dec n;
        Obs.Counter.add c_bytes_in n;
        budget := !budget - n;
        process_buffered t conn;
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
              c_dec = Frame.Decoder.create ~max_payload:t.config.max_payload ();
              c_established = false;
              c_closing = false;
              c_closed = false;
              c_throttled = false;
              c_last = now ();
              c_next_seq = 0;
              c_next_send = 0;
              c_done = Hashtbl.create 8;
              c_inflight = 0;
              c_wq = Queue.create ();
              c_woff = 0;
              c_wbytes = 0 }
          in
          Hashtbl.replace t.conns id conn
        end;
        go (budget - 1)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error (e, _, _) ->
        if t.running then Log.err (fun m -> m "accept failed: %s" (Unix.error_message e))
  in
  go 128

(* Pool completions: order replies per connection, then re-parse any
   bytes that were waiting on the pipeline cap. *)
let handle_completions t =
  Mutex.lock t.lock;
  let done_ = t.completions in
  t.completions <- [];
  Mutex.unlock t.lock;
  List.iter
    (fun (conn_id, seq, framed) ->
      match Hashtbl.find_opt t.conns conn_id with
      | None -> () (* connection died while the request executed *)
      | Some conn ->
        Hashtbl.replace conn.c_done seq framed;
        flush_ready t conn;
        if (not conn.c_closing) && below_caps t conn then process_buffered t conn)
    (List.rev done_)

(* The idle sweep doubles as the slowloris kill: [c_last] only advances
   on complete frames and on write progress, so a byte-trickler times
   out exactly like a silent peer. Connections with replies pending are
   never swept — the peer is waiting on us. *)
let sweep t t_now =
  let victims = ref [] in
  Hashtbl.iter
    (fun _ conn ->
      if conn.c_inflight = 0 && Queue.is_empty conn.c_wq
         && t_now -. conn.c_last > t.config.read_timeout
      then victims := conn :: !victims)
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
        let want_read = (not conn.c_closing) && below_caps t conn in
        if (not want_read) && (not conn.c_throttled) && not conn.c_closing then begin
          conn.c_throttled <- true;
          Obs.Counter.incr c_throttles
        end
        else if want_read then conn.c_throttled <- false;
        Poll.add pset conn.c_fd ~read:want_read ~write:(conn.c_wbytes > 0);
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
             if Poll.is_writable r then flush_writes t conn;
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
      let job = Queue.pop t.jobs in
      Mutex.unlock t.lock;
      let resp =
        match Wire.decode_request job.j_payload with
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
      let framed = Frame.encode ~tag:Wire.response_tag (Wire.encode_response resp) in
      Mutex.lock t.lock;
      t.jobs_active <- t.jobs_active - 1;
      t.served_reqs <- t.served_reqs + 1;
      Obs.Gauge.set g_inflight t.jobs_active;
      t.completions <- (job.j_conn, job.j_seq, framed) :: t.completions;
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
      workers = [];
      stopped = false }
  in
  t.workers <- List.init (max 1 config.workers) (fun _ -> Thread.create (fun () -> worker_loop t) ());
  t.loop_thread <- Some (Thread.create (fun () -> event_loop t) ());
  Log.info (fun m ->
      m "listening (%s), %d workers"
        (match config.endpoint with
         | Tcp (h, _) -> Printf.sprintf "%s:%d" h (bound_port listener)
         | Unix_socket p -> p)
        (max 1 config.workers));
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
    List.iter Thread.join t.workers;
    (* Only now is nobody left to write the wake pipe — closing earlier
       would race a worker's wake against fd-number reuse. *)
    close_quietly t.wake_r;
    close_quietly t.wake_w;
    (match t.config.endpoint with
     | Unix_socket path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
     | Tcp _ -> ())
  end
