(** The concurrent cloud server: a single-threaded poll(2) event loop
    owns every socket in non-blocking mode, and a pool of four worker
    threads runs the request handler so the loop never blocks on crypto.

    One rule orders each connection: at most one of its requests is
    between being parsed and having its reply flushed. The loop reads an
    idle connection straight into a {!Frame.Decoder} arena and parses
    frames in place; a parsed request goes to the pool, and the
    connection is neither read nor parsed again until its reply has been
    written. Then the next complete frame already buffered is parsed
    before poll(2) is asked for more bytes. So pipelined requests are
    answered one at a time, in request order, also after the peer's FIN;
    a peer that stops reading holds at most one reply in server memory;
    and requests on separate connections run concurrently.

    Defensive posture:
    - strict pre-handshake state machine: a peer whose {e first} bytes
      are not a valid frame is dropped silently (no oracle for port
      scanners); after one valid frame, malformed framing gets a
      structured refusal and then a close;
    - every idle connection is swept on [read_timeout]: idle peers and
      slowloris byte-tricklers (the clock only resets on {e complete}
      frames) are disconnected;
    - admission control: past [max_inflight] queued-or-executing
      requests, clients get a structured [Busy] refusal and back off;
    - [max_conns] caps accepted sockets; excess accepts close at once.

    {!stop} drains the loop and pool and closes everything, after which
    the same service can be re-served — the crash/restart story the
    fault-tolerance tests exercise. *)

val log_src : Logs.src

type endpoint = Tcp of string * int | Unix_socket of string

type config = {
  endpoint : endpoint;      (** [Tcp (host, 0)] picks an ephemeral port *)
  read_timeout : float;     (** idle sweep: seconds since the last complete frame *)
  max_inflight : int;       (** dispatch-pool admission cap (queued + executing) *)
  max_conns : int;          (** open-connection cap; excess accepts are closed *)
}

val default_config : config
(** Loopback TCP on an ephemeral port, 30 s read timeout, 64 inflight,
    4096 connections. *)

type t

val resolve_host : string -> Unix.inet_addr
(** Numeric (IPv4 or IPv6) or DNS name, via [getaddrinfo]. Resolution
    happens once, before binding or connecting — never on the accept
    path. @raise Failure when unresolvable. *)

val bind_endpoint : endpoint -> Unix.file_descr
(** Create/bind/listen a socket without starting any thread — so a
    process can learn the ephemeral port (or pre-bind) before forking
    workers. Pass the result to {!start} via [?listener]. *)

val bound_port : Unix.file_descr -> int
(** The actual TCP port of a bound listener (0 for Unix sockets). *)

val start :
  ?config:config -> ?listener:Unix.file_descr -> (Wire.request -> Wire.response) -> t
(** Binds (unless [listener] is given), spawns the event loop and the
    worker pool around the given request handler — [Service.handle svc]
    for a shard or lone server, the router's dispatcher for a cluster
    front end. The handler is called from worker threads and must be
    thread-safe; exceptions it raises become [Refused Internal]. *)

val frame : Wire.response -> string
(** A reply's frame, as a server sends it: built in one pass from the
    reply's pieces, and a {!Wire.response.Stats_live} straight from the
    process registry's render buffer. *)

val port : t -> int
val endpoint : t -> endpoint

val connections_served : t -> int
val requests_served : t -> int

val open_connections : t -> int
(** Live sockets currently owned by the loop. *)

val stop : t -> unit
(** Stop the loop, drain the pool, drop every connection, join all
    threads. Idempotent. *)
