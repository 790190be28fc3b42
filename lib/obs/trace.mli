(** Distributed per-request tracing: structured span trees with ids.

    A {e trace} is one client-visible request followed across every
    process it touches: the router mints a 64-bit trace id, stamps it
    (plus the id of the span doing the fan-out) onto each sub-request,
    and every shard's spans inherit it — so a cross-process scrape can
    reassemble the whole tree and say where a p99 outlier spent its
    time.

    Life cycle of a traced request inside one process:

    - {!root} makes the sampling decision (or adopts the upstream
      context carried on the wire) and opens the top span;
    - {!child} / {!Obs.span} open nested spans on the same thread;
      {!capture}/{!resume} carry the context onto helper threads
      (the router's fan-out);
    - finished spans accumulate in the context, and when the root
      completes the whole tree is published into a lock-free,
      per-domain, drop-oldest ring buffer, made on that domain's first
      publish (overwritten-before-drained spans count into
      ["slicer_trace_spans_dropped_total"]);
    - a [Wire.Traces] admin RPC drains the rings ({!drain}) and the
      scraper reassembles trees with {!Tree.assemble}.

    Everything is off by default: with a zero sample rate and no slow
    threshold, {!root} is a few loads and a branch (< 150 ns) and
    nothing downstream runs. *)

(** {1 Configuration} *)

val set_sample_rate : float -> unit
(** Probability in [[0, 1]] that {!root} (with no upstream context)
    starts a published trace. Clamped; default [0.]. *)

val set_slow_ms : float option -> unit
(** Slow-query threshold: when set, {e every} request is recorded
    locally and force-published (plus logged at [warning] level on the
    [slicer.trace] source, with its span tree as {!Tree.render} prints
    it) if the root span runs at least this many milliseconds.
    [Some 0.] publishes everything. Default [None]. *)

val log_src : Logs.src
(** The [slicer.trace] log source carrying slow-query breakdowns. *)

(** {1 Id-generator seeding} *)

val urandom64 : unit -> int64 option
(** Eight bytes of [/dev/urandom]; [None] when the device is
    unreadable (the seed then degrades to clock-and-pid mixing). *)

val seed_of : now_ns:int -> pid:int -> entropy:int64 option -> int64
(** The id generator's initial state. Pure, exposed for the collision
    regression test: two processes sharing [now_ns] {e and} [pid]
    (fork in the same scheduler tick) must still obtain distinct
    streams whenever their [entropy] words differ. *)

(** {1 Spans} *)

type span = {
  sp_trace : int64;  (** the trace this span belongs to (never 0) *)
  sp_id : int;       (** process-independent random span id (never 0) *)
  sp_parent : int;   (** parent span id; 0 = no parent known *)
  sp_name : string;  (** taxonomy name, e.g. ["router.shard"] *)
  sp_instance : string;  (** {!Obs.instance} of the recording process *)
  sp_start_ns : int; (** {!Obs.Clock.now_ns} at open *)
  sp_end_ns : int;   (** {!Obs.Clock.now_ns} at close *)
  sp_tags : (string * string) list;  (** annotations, e.g. [shard=2] *)
}

(** The trace context carried on the wire: the trace id plus the span
    to parent remote work under. Presence implies "publish". *)
type wire_ctx = { w_trace : int64; w_parent : int }

val id_to_string : int64 -> string
(** 16-char lower-case hex, e.g. ["00c0ffee00c0ffee"]. *)

val id_of_string : string -> int64 option

val root : ?remote:wire_ctx -> string -> (unit -> 'a) -> 'a
(** [root name f]: if this thread is already inside a trace, behave
    like {!child}. Otherwise adopt [remote] when present, else decide
    by sampling / slow-query config; when the decision is "no trace",
    run [f] directly. The span tree publishes when the root span
    closes (exceptions included). *)

val child : ?tags:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Record a nested span on the current thread's context; runs [f]
    directly when there is none. *)

val tag : string -> string -> unit
(** Annotate the innermost open span on this thread ([key=value]);
    no-op outside a trace. *)

val current : unit -> wire_ctx option
(** The context to stamp on an outgoing sub-request: the trace id plus
    the innermost open span as the remote parent. *)

type carrier
(** A captured context that a helper thread can {!resume}. *)

val capture : unit -> carrier option

val resume : carrier option -> (unit -> 'a) -> 'a
(** Run [f] with the captured context installed on the calling thread
    (no-op when [None] or when the thread already traces). The caller
    must ensure the originating {!root} outlives [f] — e.g. by joining
    the helper thread before returning, as the router's fan-out does. *)

(** {1 Draining and assembly} *)

val drain : unit -> span list
(** Atomically take every published-but-undrained span out of the
    rings (all domains). Spans overwritten before a drain are counted
    into ["slicer_trace_spans_dropped_total"]. *)

module Tree : sig
  type node = { n_span : span; n_children : node list }

  type t = {
    t_trace : int64;
    t_roots : node list;  (** parentless spans, ordered by start *)
    t_start_ns : int;
    t_end_ns : int;
    t_spans : int;
  }

  val assemble : span list -> t list
  (** Group by trace id and link parent pointers; spans whose parent
      was not drained become additional roots. Trees are ordered by
      start time, children within a node by start time. *)

  val duration_ms : t -> float

  val render : t -> string
  (** Indented timeline: per span the offset from the tree start, the
      duration, name, instance and tags. *)

  val to_chrome : t list -> string
  (** Chrome [trace_event] JSON (an object with a ["traceEvents"]
      array of complete events) loadable in [about:tracing] and
      Perfetto. Instances map to pids; overlapping sibling spans are
      spread across tids so every track stays properly nested. *)
end
