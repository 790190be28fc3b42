(* Metrics, phase tracing and exposition for the whole Slicer pipeline.

   Design constraints, in order:

   1. Recording on the hot path must stay O(ns) and allocation-free:
      every instrument is an array of [int Atomic.t] cells sharded by
      the recording domain's id, so the fork-join pool and the
      thread-per-connection server never contend on a cache line.
      Totals are exact — shards are summed at snapshot time, never
      sampled. A histogram shard's 912 bucket cells (~22 KB) are
      allocated on that shard's first record, so an instrument costs
      only the domains that record into it; counters keep their 16
      cells eager, since they are small and the most frequent.

   2. Histograms are HDR-style log-linear over non-negative ints
      (nanoseconds for latency, raw units for gas): values below 16
      get exact buckets, larger values get 16 sub-buckets per octave,
      bounding the relative quantile error at ~6% with ~900 buckets
      total. Two histograms recorded on different domains merge into
      the same totals as one histogram recording everything.

   3. The registry is process-global by default (the service, the
      bench driver and the CLI all read the same truth), but tests can
      build isolated registries. *)

(* Which process this registry describes — "" for a standalone server
   (exposition format unchanged), "shard-0" / "router" in a cluster so
   one merged scrape can tell the members apart. *)
let instance_ref = ref ""
let set_instance name = instance_ref := name
let instance () = !instance_ref

module Clock = struct
  (* CLOCK_MONOTONIC via the bechamel stub (OCaml 5.1's [Unix] has no
     [clock_gettime]). Wall-clock deadlines computed from
     [Unix.gettimeofday] fire early or never when NTP steps the clock;
     everything interval-shaped must come through here. *)
  let now_ns () = Int64.to_int (Monotonic_clock.now ())

  let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

  let elapsed_s t0_ns = float_of_int (now_ns () - t0_ns) /. 1e9
end

(* Shards: a power of two comfortably above the pool sizes we run
   (domains are numbered densely from 0). Collisions just mean two
   domains share an atomic — correctness is unaffected. *)
let n_shards = 16

let shard () = (Domain.self () :> int) land (n_shards - 1)

let make_cells () = Array.init n_shards (fun _ -> Atomic.make 0)

let sum_cells cells = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 cells

module Counter = struct
  type t = { cells : int Atomic.t array }

  let create () = { cells = make_cells () }

  let add t n = ignore (Atomic.fetch_and_add t.cells.(shard ()) n)

  let incr t = add t 1

  let value t = sum_cells t.cells
end

module Gauge = struct
  type t = { cell : int Atomic.t }

  let create () = { cell = Atomic.make 0 }

  let set t v = Atomic.set t.cell v
  let add t n = ignore (Atomic.fetch_and_add t.cell n)
  let value t = Atomic.get t.cell
end

module Summary = struct
  (* Nearest-rank percentile on an already sorted array, shared so the
     bench targets and the exposition agree. [p] is in percent (50.,
     95., ...). *)
  let percentile sorted p =
    let n = Array.length sorted in
    if n = 0 then Float.nan
    else sorted.(min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1))
end

module Histogram = struct
  type units = Seconds | Raw

  (* Log-linear bucketing: [sub] linear sub-buckets per octave. *)
  let sub_bits = 4
  let sub = 1 lsl sub_bits
  let max_log2 = 59 (* values clamp at 2^60 - 1; ns up to ~36 years *)
  let n_buckets = ((max_log2 - sub_bits + 1) lsl sub_bits) + sub

  let log2i v =
    let r = ref 0 and v = ref v in
    if !v lsr 32 <> 0 then (r := !r + 32; v := !v lsr 32);
    if !v lsr 16 <> 0 then (r := !r + 16; v := !v lsr 16);
    if !v lsr 8 <> 0 then (r := !r + 8; v := !v lsr 8);
    if !v lsr 4 <> 0 then (r := !r + 4; v := !v lsr 4);
    if !v lsr 2 <> 0 then (r := !r + 2; v := !v lsr 2);
    if !v lsr 1 <> 0 then incr r;
    !r

  let bucket_of v =
    let v = if v < 0 then 0 else v in
    if v < sub then v
    else begin
      let v = if log2i v > max_log2 then (1 lsl (max_log2 + 1)) - 1 else v in
      let m = log2i v in
      ((m - sub_bits + 1) lsl sub_bits) lor ((v lsr (m - sub_bits)) land (sub - 1))
    end

  (* Largest value that lands in bucket [i] (inclusive upper bound). *)
  let bucket_bound i =
    if i < sub then i
    else begin
      let m = (i lsr sub_bits) + sub_bits - 1 in
      let s = i land (sub - 1) in
      ((sub + s + 1) lsl (m - sub_bits)) - 1
    end

  (* A shard's cells: one count per bucket, then the shard's sum. *)
  let sum_cell = n_buckets

  (* The cells of a shard that has not recorded yet. *)
  let no_cells : int Atomic.t array = [||]

  type t = {
    units : units;
    shards : int Atomic.t array Atomic.t array; (* shard -> cells, [no_cells] until first write *)
    (* Exemplars: the most recent published trace id per bucket, so a
       p99 bucket in the exposition links to a dumpable trace. Lazily
       allocated — only traced processes pay — and written plainly:
       last-writer-wins is exactly the wanted semantics, and 0L marks
       an empty cell (trace ids are minted non-zero). *)
    exemplar_cells : int64 array option Atomic.t;
  }

  let create ?(units = Seconds) () =
    { units;
      shards = Array.init n_shards (fun _ -> Atomic.make no_cells);
      exemplar_cells = Atomic.make None }

  let units t = t.units

  (* A shard's cells, allocated on its first write. Two threads racing
     on the first write both allocate; the CAS loser drops its array
     and uses the winner's, so no count lands in a discarded cell. *)
  let shard_cells t s =
    let slot = t.shards.(s) in
    let cells = Atomic.get slot in
    if cells != no_cells then cells
    else begin
      let fresh = Array.init (n_buckets + 1) (fun _ -> Atomic.make 0) in
      if Atomic.compare_and_set slot no_cells fresh then fresh else Atomic.get slot
    end

  let record t v =
    let v = if v < 0 then 0 else v in
    let cells = shard_cells t (shard ()) in
    ignore (Atomic.fetch_and_add cells.(bucket_of v) 1);
    ignore (Atomic.fetch_and_add cells.(sum_cell) v)

  (* Latency entry point: seconds in, nanoseconds recorded. Durations
     (not absolute times) keep the float mantissa honest. *)
  let record_s t seconds = record t (int_of_float ((seconds *. 1e9) +. 0.5))

  type snapshot = {
    sn_units : units;
    sn_count : int;
    sn_sum : int;                   (* raw units: ns or gas *)
    sn_buckets : (int * int) array; (* (inclusive upper bound, count), non-empty only *)
  }

  let snapshot t =
    let shards =
      List.filter (fun cells -> cells != no_cells) (List.map Atomic.get (Array.to_list t.shards))
    in
    let cell i = List.fold_left (fun acc cells -> acc + Atomic.get cells.(i)) 0 shards in
    let count = ref 0 in
    let buckets = ref [] in
    for b = n_buckets - 1 downto 0 do
      let n = cell b in
      if n <> 0 then begin
        count := !count + n;
        buckets := (bucket_bound b, n) :: !buckets
      end
    done;
    { sn_units = t.units;
      sn_count = !count;
      sn_sum = cell sum_cell;
      sn_buckets = Array.of_list !buckets }

  (* Every shard's cells summed into [into] (one count per bucket, then
     the sum), each cell read once: the exposition renders a scrape
     from one such reading, into an array its registry reuses. *)
  let sum_into t into =
    Array.fill into 0 (n_buckets + 1) 0;
    Array.iter
      (fun slot ->
        let cells = Atomic.get slot in
        if cells != no_cells then
          for i = 0 to n_buckets do
            into.(i) <- into.(i) + Atomic.get cells.(i)
          done)
      t.shards

  (* Nearest-rank quantile over the bucketed counts; returns the
     inclusive upper bound of the bucket holding that rank, in raw
     units. [q] in [0, 1]. *)
  let quantile sn q =
    if sn.sn_count = 0 then Float.nan
    else begin
      let rank = max 1 (int_of_float (ceil (q *. float_of_int sn.sn_count))) in
      let rec walk i seen =
        if i >= Array.length sn.sn_buckets then Float.nan
        else begin
          let bound, n = sn.sn_buckets.(i) in
          if seen + n >= rank then float_of_int bound else walk (i + 1) (seen + n)
        end
      in
      walk 0 0
    end

  let set_exemplar t ~value ~trace =
    if trace <> 0L then begin
      let cells =
        match Atomic.get t.exemplar_cells with
        | Some a -> a
        | None ->
          let a = Array.make n_buckets 0L in
          if Atomic.compare_and_set t.exemplar_cells None (Some a) then a
          else (match Atomic.get t.exemplar_cells with Some a -> a | None -> a)
      in
      cells.(bucket_of value) <- trace
    end

  let exemplars t =
    match Atomic.get t.exemplar_cells with
    | None -> []
    | Some a ->
      let out = ref [] in
      for b = n_buckets - 1 downto 0 do
        if a.(b) <> 0L then out := (bucket_bound b, a.(b)) :: !out
      done;
      !out

  (* Display scale: raw units -> exported units. *)
  let scale t = match t with Seconds -> 1e-9 | Raw -> 1.
end

type metric =
  | Counter of Counter.t
  | Gauge of Gauge.t
  | Histogram of Histogram.t

module Registry = struct
  type entry = { e_name : string; e_help : string; e_metric : metric }

  type t = {
    lock : Mutex.t;
    mutable entries : entry list; (* sorted by name *)
    (* Exposition state, owned by the registry and reused by every
       scrape under [render_lock]: the buffer both encoders write into,
       which keeps its capacity between scrapes, and one histogram's
       summed cells ({!Histogram.sum_into}). *)
    render_lock : Mutex.t;
    render : Buffer.t;
    counts : int array;
  }

  let create () =
    { lock = Mutex.create ();
      entries = [];
      render_lock = Mutex.create ();
      render = Buffer.create 4096;
      counts = Array.make (Histogram.n_buckets + 1) 0 }

  let default = create ()

  let rec insert e = function
    | x :: rest when String.compare x.e_name e.e_name < 0 -> x :: insert e rest
    | l -> e :: l

  (* Registration is idempotent: the first registration under a name
     wins and later ones get the same instrument back, so a module can
     name a shared counter without owning it. A kind clash is a
     programming error. Entries are kept in name order, the order every
     scrape exports them in. *)
  let register t name help make =
    Mutex.lock t.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () ->
        match List.find_opt (fun e -> e.e_name = name) t.entries with
        | Some e -> e.e_metric
        | None ->
          let m = make () in
          t.entries <- insert { e_name = name; e_help = help; e_metric = m } t.entries;
          m)

  let entries t =
    Mutex.lock t.lock;
    let es = t.entries in
    Mutex.unlock t.lock;
    es

  (* One scrape at a time renders into the registry's buffer: [f] gets
     the emptied buffer and keeps the lock until it returns, so what it
     reads back from the buffer is its own rendering. *)
  let rendering t f =
    let es = entries t in
    Mutex.lock t.render_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.render_lock)
      (fun () ->
        Buffer.clear t.render;
        f t.render t.counts es)

  (* A rendering as one copy of exactly its length. *)
  let render t f =
    rendering t (fun buf counts es ->
        f buf counts es;
        Buffer.contents buf)
end

let counter ?(registry = Registry.default) ?(help = "") name =
  match Registry.register registry name help (fun () -> Counter (Counter.create ())) with
  | Counter c -> c
  | _ -> invalid_arg ("Obs.counter: " ^ name ^ " is registered as another kind")

let gauge ?(registry = Registry.default) ?(help = "") name =
  match Registry.register registry name help (fun () -> Gauge (Gauge.create ())) with
  | Gauge g -> g
  | _ -> invalid_arg ("Obs.gauge: " ^ name ^ " is registered as another kind")

let histogram ?(registry = Registry.default) ?(help = "") ?(units = Histogram.Seconds) name =
  match
    Registry.register registry name help (fun () -> Histogram (Histogram.create ~units ()))
  with
  | Histogram h -> h
  | _ -> invalid_arg ("Obs.histogram: " ^ name ^ " is registered as another kind")

let counter_value ?(registry = Registry.default) name =
  match List.find_opt (fun e -> e.Registry.e_name = name) (Registry.entries registry) with
  | Some { Registry.e_metric = Counter c; _ } -> Counter.value c
  | _ -> 0

(* --- spans ------------------------------------------------------------- *)

(* "core.build" -> "slicer_core_build_seconds". *)
let metric_of_span name =
  let mapped = String.map (fun c -> if c = '.' || c = '-' then '_' else c) name in
  "slicer_" ^ mapped ^ "_seconds"

module Smap = Map.Make (String)

(* Lock-free lookup on the hot path: an immutable map behind an atomic,
   CAS-published on the (rare) first use of a span name. Registration
   idempotency guarantees racers resolve to the same histogram. *)
let span_cache : Histogram.t Smap.t Atomic.t = Atomic.make Smap.empty

let span_histogram name =
  match Smap.find_opt name (Atomic.get span_cache) with
  | Some h -> h
  | None ->
    let h = histogram ~help:("time in span " ^ name) (metric_of_span name) in
    let rec publish () =
      let old = Atomic.get span_cache in
      if not (Smap.mem name old)
         && not (Atomic.compare_and_set span_cache old (Smap.add name h old))
      then publish ()
    in
    publish ();
    h

(* Cache-only lookup: a histogram for a span name that has actually
   been recorded, never creating one (Trace uses it to attach
   exemplars without polluting the registry with empty series). *)
let find_span_histogram name = Smap.find_opt name (Atomic.get span_cache)

(* --- trace integration -------------------------------------------------- *)

(* Hook cells installed by [Trace] at module-init time (identity when
   tracing never links). [span] consults them only when [trace_live]
   says some thread currently carries a trace context, so the untraced
   hot path pays one atomic load and a branch. [trace_enter] returns a
   non-zero token when a span was opened; [trace_exit] closes the
   innermost open span on the calling thread. *)
let trace_live : int Atomic.t = Atomic.make 0
let trace_enter : (string -> int) ref = ref (fun _ -> 0)
let trace_exit : (unit -> unit) ref = ref (fun () -> ())

let span name f =
  let h = span_histogram name in
  let tok = if Atomic.get trace_live > 0 then !trace_enter name else 0 in
  let t0 = Clock.now_ns () in
  match f () with
  | r ->
    Histogram.record h (Clock.now_ns () - t0);
    if tok <> 0 then !trace_exit ();
    r
  | exception exn ->
    Histogram.record h (Clock.now_ns () - t0);
    if tok <> 0 then !trace_exit ();
    raise exn

(* --- process memory ------------------------------------------------------- *)

external page_size : unit -> int = "slicer_page_size" [@@noalloc]

(* Resident pages: the second field of /proc/self/statm, read with one
   read(2) into a small buffer. A channel would malloc 64 KiB on every
   scrape, in the arena of the worker serving it. *)
let resident_pages () =
  match Unix.openfile "/proc/self/statm" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> None
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let buf = Bytes.create 160 in
        match Unix.read fd buf 0 (Bytes.length buf) with
        | exception Unix.Unix_error _ -> None
        | n ->
          (match String.split_on_char ' ' (Bytes.sub_string buf 0 n) with
           | _ :: resident :: _ -> int_of_string_opt resident
           | _ -> None))

(* The gauges are registered by the first sample, so a process that
   never sampled exports none of them, and a host without procfs no
   resident-memory series rather than a zero. *)
let sample_memory () =
  let set name help v = Gauge.set (gauge ~help name) v in
  let st = Gc.quick_stat () and word = Sys.word_size / 8 in
  set "slicer_ocaml_major_heap_bytes" "OCaml major heap size, bytes" (st.Gc.heap_words * word);
  set "slicer_ocaml_major_heap_top_bytes" "OCaml major heap high-water mark, bytes"
    (st.Gc.top_heap_words * word);
  match resident_pages () with
  | Some pages ->
    set "slicer_process_resident_bytes" "process resident set size, bytes" (pages * page_size ())
  | None -> ()

(* --- exposition -------------------------------------------------------- *)

module Export = struct
  (* The primitive [Printf]'s [%g] conversions end in, without the
     format interpreter around it. *)
  external format_float : string -> float -> string = "caml_format_float"

  (* Everything below writes into the registry's buffer: a scrape builds
     no line, piece or list of its own. *)
  let add = Buffer.add_string

  (* The digits of [-n], for [n <= 0] (so [min_int] needs no special
     case). *)
  let rec add_digits buf n =
    if n <= -10 then add_digits buf (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (n mod 10)))

  let add_int buf n =
    if n < 0 then begin
      Buffer.add_char buf '-';
      add_digits buf n
    end
    else add_digits buf (-n)

  (* %.9g: enough digits to round-trip every bucket bound and count we
     emit, few enough to stay deterministic across platforms. A whole
     number below 1e9, which %.9g prints as its digits, is written as
     an int (every Raw bound and sum, and zero). *)
  let add_float buf x =
    if Float.is_integer x && x < 1e9 && not (Float.sign_bit x) then
      add_int buf (int_of_float x)
    else add buf (format_float "%.9g" x)

  let hex = "0123456789abcdef"

  (* %016Lx *)
  let add_hex64 buf v =
    for i = 15 downto 0 do
      Buffer.add_char buf
        hex.[Int64.to_int (Int64.logand (Int64.shift_right_logical v (4 * i)) 0xfL)]
    done

  let add_json_string buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> add buf "\\\""
        | '\\' -> add buf "\\\\"
        | '\n' -> add buf "\\n"
        | '\t' -> add buf "\\t"
        | c when Char.code c < 0x20 ->
          add buf "\\u00";
          Buffer.add_char buf hex.[Char.code c lsr 4];
          Buffer.add_char buf hex.[Char.code c land 0xf]
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  (* A bucket's exported bound. *)
  let add_bound buf b scale = add_float buf (float_of_int (Histogram.bucket_bound b) *. scale)

  (* Total count of summed cells ({!Histogram.sum_into}). *)
  let total counts =
    let n = ref 0 in
    for b = 0 to Histogram.n_buckets - 1 do
      n := !n + counts.(b)
    done;
    !n

  (* The bucket holding nearest rank [q] of [count] observations, as
     {!Histogram.quantile} finds it; -1 when there are none. *)
  let rank_bucket counts count q =
    if count = 0 then -1
    else begin
      let rank = max 1 (int_of_float (ceil (q *. float_of_int count))) in
      let rec walk b seen =
        if b >= Histogram.n_buckets then -1
        else if counts.(b) <> 0 && seen + counts.(b) >= rank then b
        else walk (b + 1) (seen + counts.(b))
      in
      walk 0 0
    end

  let text_into buf counts entries =
    (* The instance label, when set, rides on every series so a
       merged cluster scrape (router text ^ shard texts) stays
       well-formed: same metric name, distinct label sets. Empty
       instance emits the exact pre-cluster format. *)
    let inst = !instance_ref in
    let plain () = if inst <> "" then (add buf "{instance=\""; add buf inst; add buf "\"}") in
    let close_le () =
      if inst = "" then add buf "\"} "
      else begin
        add buf "\",instance=\"";
        add buf inst;
        add buf "\"} "
      end
    in
    let header name help kind =
      if help <> "" then begin
        add buf "# HELP ";
        add buf name;
        Buffer.add_char buf ' ';
        add buf help;
        Buffer.add_char buf '\n'
      end;
      add buf "# TYPE ";
      add buf name;
      Buffer.add_char buf ' ';
      add buf kind;
      Buffer.add_char buf '\n'
    in
    let series name suffix =
      add buf name;
      add buf suffix;
      plain ();
      Buffer.add_char buf ' '
    in
    let scalar name suffix v =
      series name suffix;
      add_int buf v;
      Buffer.add_char buf '\n'
    in
    List.iter
      (fun { Registry.e_name = name; e_help = help; e_metric } ->
        match e_metric with
        | Counter c ->
          header name help "counter";
          scalar name "" (Counter.value c)
        | Gauge g ->
          header name help "gauge";
          scalar name "" (Gauge.value g)
        | Histogram h ->
          Histogram.sum_into h counts;
          let scale = Histogram.scale (Histogram.units h) in
          header name help "histogram";
          let cum = ref 0 in
          for b = 0 to Histogram.n_buckets - 1 do
            if counts.(b) <> 0 then begin
              cum := !cum + counts.(b);
              add buf name;
              add buf "_bucket{le=\"";
              add_bound buf b scale;
              close_le ();
              add_int buf !cum;
              Buffer.add_char buf '\n'
            end
          done;
          add buf name;
          add buf "_bucket{le=\"+Inf";
          close_le ();
          add_int buf !cum;
          Buffer.add_char buf '\n';
          series name "_sum";
          add_float buf (float_of_int counts.(Histogram.n_buckets) *. scale);
          Buffer.add_char buf '\n';
          scalar name "_count" !cum)
      entries

  let to_prometheus ?(registry = Registry.default) () = Registry.render registry text_into

  let json_into buf counts entries =
    let scalars pick =
      let first = ref true in
      List.iter
        (fun e ->
          match pick e.Registry.e_metric with
          | None -> ()
          | Some v ->
            if not !first then add buf ", ";
            first := false;
            add_json_string buf e.Registry.e_name;
            add buf ": ";
            add_int buf v)
        entries
    in
    add buf "{\n";
    if !instance_ref <> "" then begin
      add buf "  \"instance\": ";
      add_json_string buf !instance_ref;
      add buf ",\n"
    end;
    add buf "  \"counters\": {";
    scalars (function Counter c -> Some (Counter.value c) | _ -> None);
    add buf "},\n  \"gauges\": {";
    scalars (function Gauge g -> Some (Gauge.value g) | _ -> None);
    add buf "},\n  \"histograms\": {";
    let first = ref true in
    List.iter
      (fun e ->
        match e.Registry.e_metric with
        | Counter _ | Gauge _ -> ()
        | Histogram h ->
          Histogram.sum_into h counts;
          let scale = Histogram.scale (Histogram.units h) in
          let count = total counts in
          (* JSON has no NaN: an empty histogram's quantiles are null. *)
          let quantile q =
            match rank_bucket counts count q with
            | -1 -> add buf "null"
            | b -> add_bound buf b scale
          in
          if not !first then Buffer.add_char buf ',';
          first := false;
          add buf "\n    ";
          add_json_string buf e.Registry.e_name;
          add buf ": {\"count\": ";
          add_int buf count;
          add buf ", \"sum\": ";
          add_float buf (float_of_int counts.(Histogram.n_buckets) *. scale);
          add buf ", \"p50\": ";
          quantile 0.5;
          add buf ", \"p95\": ";
          quantile 0.95;
          add buf ", \"p99\": ";
          quantile 0.99;
          add buf ", \"buckets\": [";
          let sep = ref "" in
          for b = 0 to Histogram.n_buckets - 1 do
            if counts.(b) <> 0 then begin
              add buf !sep;
              sep := ", ";
              Buffer.add_char buf '[';
              add_bound buf b scale;
              add buf ", ";
              add_int buf counts.(b);
              Buffer.add_char buf ']'
            end
          done;
          Buffer.add_char buf ']';
          (* Exemplars only appear once a trace has been published
             into this histogram, so untraced processes keep the
             exact pre-tracing snapshot format. *)
          (match Atomic.get h.Histogram.exemplar_cells with
           | None -> ()
           | Some cells ->
             let any = ref false in
             Array.iteri
               (fun b trace ->
                 if not (Int64.equal trace 0L) then begin
                   add buf (if !any then ", " else ", \"exemplars\": [");
                   any := true;
                   Buffer.add_char buf '[';
                   add_bound buf b scale;
                   add buf ", \"";
                   add_hex64 buf trace;
                   add buf "\"]"
                 end)
               cells;
             if !any then Buffer.add_char buf ']');
          Buffer.add_char buf '}')
      entries;
    if not !first then add buf "\n  ";
    add buf "}\n}\n"

  let to_json ?(registry = Registry.default) () = Registry.render registry json_into

  (* The JSON and then the text, back to back in the registry's buffer,
     both rendered from one snapshot of the entry list. *)
  let exposition ?(registry = Registry.default) k =
    Registry.rendering registry (fun buf counts entries ->
        json_into buf counts entries;
        let json_len = Buffer.length buf in
        text_into buf counts entries;
        k buf ~json_len)

  let rec ensure_dir dir =
    if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
      ensure_dir (Filename.dirname dir);
      try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end

  let ensure_parent path = ensure_dir (Filename.dirname path)
end
