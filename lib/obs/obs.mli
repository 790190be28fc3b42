(** Metrics, phase tracing and exposition for the Slicer pipeline.

    One process-global registry of named instruments — counters, gauges
    and HDR-style latency histograms — all backed by per-domain sharded
    [Atomic.t] cells so the fork-join pool and the thread-per-connection
    server record without contention, and all totals stay {e exact}.

    Phase timing uses {!span}: [span "core.build" f] runs [f] and
    records its wall time into the histogram
    ["slicer_core_build_seconds"] (dots map to underscores, a
    [slicer_] prefix and [_seconds] suffix are added). Recording costs
    O(100 ns); with {!set_enabled}[ false] the whole layer collapses to
    a load-and-branch.

    Snapshots export as Prometheus text or JSON via {!Export}. *)

val set_enabled : bool -> unit
(** Globally enable/disable all recording (default: enabled). Disabled
    instruments still expose their last totals. *)

val enabled : unit -> bool

val set_instance : string -> unit
(** Name this process in exposition: when non-empty, every exported
    series carries an [instance="..."] label (and the JSON snapshot an
    ["instance"] field), so merged cluster scrapes — router text
    concatenated with shard texts — keep the members apart. The default
    [""] leaves the exposition format exactly as before. *)

val instance : unit -> string

module Clock : sig
  (** The process's monotonic clock ([CLOCK_MONOTONIC]). Every
      deadline, timeout and interval in the pipeline must be computed
      against this clock, never [Unix.gettimeofday]: an NTP step moves
      the wall clock and would fire every in-flight timeout early — or
      never. The epoch is arbitrary (boot-relative); only differences
      are meaningful. *)

  val now : unit -> float
  (** Monotonic seconds. *)

  val now_ns : unit -> int
  (** Monotonic nanoseconds (cheap: one [@@noalloc] C call). *)

  val elapsed_s : int -> float
  (** [elapsed_s t0] — seconds since an earlier {!now_ns} reading. *)
end

module Counter : sig
  type t

  val add : t -> int -> unit
  val incr : t -> unit

  val value : t -> int
  (** Exact sum over all shards. *)
end

module Gauge : sig
  type t

  val set : t -> int -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Summary : sig
  val percentile : float array -> float -> float
  (** [percentile sorted p] — nearest-rank percentile ([p] in percent,
      e.g. [95.]) over an already-sorted array; [nan] when empty. The
      formula the bench targets report. *)
end

module Histogram : sig
  type t

  (** What the recorded ints denote, and hence the export scale:
      [Seconds] histograms record nanoseconds and export seconds;
      [Raw] histograms export values unscaled (e.g. gas). *)
  type units = Seconds | Raw

  val units : t -> units

  val record : t -> int -> unit
  (** Record one non-negative observation (ns or raw units); negative
      values clamp to 0. Lock-free. A domain's first record into a
      histogram allocates that domain's shard (912 bucket cells, ~22 KB);
      every later one is allocation-free. *)

  val record_s : t -> float -> unit
  (** Record a duration given in seconds (stored as ns). *)

  val merge_into : src:t -> dst:t -> unit
  (** Fold [src]'s observations into [dst] — snapshot-equivalent to
      having recorded everything into [dst] directly. Raises
      [Invalid_argument] on a units mismatch. *)

  type snapshot = {
    sn_units : units;
    sn_count : int;
    sn_sum : int;                   (** raw units: ns or gas *)
    sn_buckets : (int * int) array; (** (inclusive upper bound, count), non-empty only *)
  }

  val snapshot : t -> snapshot

  val quantile : snapshot -> float -> float
  (** Nearest-rank quantile ([q] in [0, 1]) in raw units: the upper
      bound of the bucket holding that rank (≤ ~6% relative error);
      [nan] when empty. *)

  val bucket_of : int -> int
  (** Bucket index for a value (log-linear, 16 sub-buckets/octave). *)

  val bucket_bound : int -> int
  (** Inclusive upper bound of a bucket index. *)

  val set_exemplar : t -> value:int -> trace:int64 -> unit
  (** Remember [trace] as the most recent published trace id for the
      bucket [value] lands in (last-writer-wins; [0L] is ignored).
      Storage is allocated lazily on first use, so untraced processes
      pay nothing. *)

  val exemplars : t -> (int * int64) list
  (** [(inclusive bucket upper bound, trace id)] for every bucket that
      holds an exemplar, ascending; [[]] until {!set_exemplar} runs. *)
end

module Registry : sig
  type t

  val create : unit -> t
  (** A fresh, empty registry (for tests). *)

  val default : t
  (** The process-global registry every instrument lands in unless told
      otherwise. *)
end

val counter : ?registry:Registry.t -> ?help:string -> string -> Counter.t
(** Get-or-create: the first registration under a name wins; later
    calls return the same instrument, so independent modules can share
    a counter by name. Raises [Invalid_argument] if the name is
    registered as a different kind. *)

val gauge : ?registry:Registry.t -> ?help:string -> string -> Gauge.t

val histogram :
  ?registry:Registry.t -> ?help:string -> ?units:Histogram.units -> string -> Histogram.t

val counter_value : ?registry:Registry.t -> string -> int
(** Current value of a registered counter, 0 if absent. *)

val metric_of_span : string -> string
(** ["core.build"] → ["slicer_core_build_seconds"]. *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] times [f ()] (exceptions included) into the histogram
    {!metric_of_span}[ name] in the default registry. When disabled,
    runs [f] directly. When the calling thread carries a live [Trace]
    context, the same interval is also recorded as a child span of the
    surrounding trace (see {!trace_enter}). *)

val find_span_histogram : string -> Histogram.t option
(** The histogram behind a span name, if that span has ever been
    recorded in this process — a cache-only lookup that never creates
    registry entries (unlike {!span} itself). *)

(** {2 Trace integration (internal)}

    Hook cells wired up by the [Trace] module at init time so {!span}
    can report finished intervals into the surrounding request trace
    without [Obs] depending on [Trace]. Not for application use. *)

val trace_live : int Atomic.t
(** Number of threads currently carrying a trace context; {!span}
    skips the hooks entirely while it reads 0. *)

val trace_enter : (string -> int) ref
(** Opens a child span on the calling thread's trace context; returns
    a non-zero token when it did. *)

val trace_exit : (unit -> unit) ref
(** Closes the innermost open span on the calling thread. *)

val sample_memory : unit -> unit
(** Set the process memory gauges in the default registry:
    [slicer_process_resident_bytes], from [/proc/self/statm] (never
    registered where that file cannot be read), and
    [slicer_ocaml_major_heap_bytes] / [slicer_ocaml_major_heap_top_bytes],
    the OCaml major heap's current size and high-water mark. Each gauge
    is registered by the first call that sets it. The Stats handlers
    call it just before they export, so a scrape reads the footprint at
    that moment. *)

module Export : sig
  val to_prometheus : ?registry:Registry.t -> unit -> string
  (** Prometheus text exposition: entries sorted by name; histograms as
      cumulative [_bucket{le="..."}] lines (non-empty buckets plus
      [+Inf]) with [_sum]/[_count]. Deterministic for a given state. *)

  val to_json : ?registry:Registry.t -> unit -> string
  (** JSON snapshot: [{"counters": {...}, "gauges": {...},
      "histograms": {name: {count, sum, p50, p95, p99, buckets}}}]. An
      empty histogram's quantiles are [null], since JSON has no NaN. *)

  val ensure_parent : string -> unit
  (** Create the parent directories of a path if missing. *)

  val write_file : string -> string -> unit
  (** Write [content] to [path], creating parent directories first. *)
end
