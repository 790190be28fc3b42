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
      build isolated registries.

   Everything is guarded by one [enabled] flag; when cleared, [span]
   runs its thunk directly and recording is a single load-and-branch. *)

let enabled_flag = ref true
let set_enabled b = enabled_flag := b
let enabled () = !enabled_flag

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

  let add t n =
    if !enabled_flag then ignore (Atomic.fetch_and_add t.cells.(shard ()) n)

  let incr t = add t 1

  let value t = sum_cells t.cells
end

module Gauge = struct
  type t = { cell : int Atomic.t }

  let create () = { cell = Atomic.make 0 }

  let set t v = if !enabled_flag then Atomic.set t.cell v
  let add t n = if !enabled_flag then ignore (Atomic.fetch_and_add t.cell n)
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
    if !enabled_flag then begin
      let v = if v < 0 then 0 else v in
      let cells = shard_cells t (shard ()) in
      ignore (Atomic.fetch_and_add cells.(bucket_of v) 1);
      ignore (Atomic.fetch_and_add cells.(sum_cell) v)
    end

  (* Latency entry point: seconds in, nanoseconds recorded. Durations
     (not absolute times) keep the float mantissa honest. *)
  let record_s t seconds = record t (int_of_float ((seconds *. 1e9) +. 0.5))

  (* Fold [src]'s cells into [dst]. Snapshot-equivalent to having
     recorded every [src] observation into [dst] directly. A [dst]
     shard gets cells only where the [src] shard has them. *)
  let merge_into ~src ~dst =
    if src.units <> dst.units then invalid_arg "Obs.Histogram.merge_into: unit mismatch";
    Array.iteri
      (fun s slot ->
        let from = Atomic.get slot in
        if from != no_cells then begin
          let into = shard_cells dst s in
          Array.iteri
            (fun i c ->
              let n = Atomic.get c in
              if n <> 0 then ignore (Atomic.fetch_and_add into.(i) n))
            from
        end)
      src.shards

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

  type t = { lock : Mutex.t; mutable entries : entry list }

  let create () = { lock = Mutex.create (); entries = [] }

  let default = create ()

  (* Registration is idempotent: the first registration under a name
     wins and later ones get the same instrument back, so a module can
     name a shared counter without owning it. A kind clash is a
     programming error. *)
  let register t name help make =
    Mutex.lock t.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () ->
        match List.find_opt (fun e -> e.e_name = name) t.entries with
        | Some e -> e.e_metric
        | None ->
          let m = make () in
          t.entries <- { e_name = name; e_help = help; e_metric = m } :: t.entries;
          m)

  let entries t =
    Mutex.lock t.lock;
    let es = t.entries in
    Mutex.unlock t.lock;
    List.sort (fun a b -> compare a.e_name b.e_name) es
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
  if not !enabled_flag then f ()
  else begin
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
  end

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
  (* %.9g: enough digits to round-trip every bucket bound and count we
     emit, few enough to stay deterministic across platforms. *)
  let fmt_float x =
    if Float.is_nan x then "NaN" else Printf.sprintf "%.9g" x

  (* JSON has no NaN: an empty histogram's quantiles are null. *)
  let json_float x = if Float.is_nan x then "null" else fmt_float x

  let json_escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let to_prometheus ?(registry = Registry.default) () =
    let buf = Buffer.create 4096 in
    (* The instance label, when set, rides on every series so a merged
       cluster scrape (router text ^ shard texts) stays well-formed:
       same metric name, distinct label sets. Empty instance emits the
       exact pre-cluster format. *)
    let inst = !instance_ref in
    let plain = if inst = "" then "" else Printf.sprintf "{instance=\"%s\"}" inst in
    let with_le le =
      if inst = "" then Printf.sprintf "{le=\"%s\"}" le
      else Printf.sprintf "{le=\"%s\",instance=\"%s\"}" le inst
    in
    let header name help kind =
      if help <> "" then Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
    in
    List.iter
      (fun { Registry.e_name = name; e_help = help; e_metric } ->
        match e_metric with
        | Counter c ->
          header name help "counter";
          Buffer.add_string buf (Printf.sprintf "%s%s %d\n" name plain (Counter.value c))
        | Gauge g ->
          header name help "gauge";
          Buffer.add_string buf (Printf.sprintf "%s%s %d\n" name plain (Gauge.value g))
        | Histogram h ->
          let sn = Histogram.snapshot h in
          let scale = Histogram.scale sn.Histogram.sn_units in
          header name help "histogram";
          let cum = ref 0 in
          Array.iter
            (fun (bound, n) ->
              cum := !cum + n;
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" name
                   (with_le (fmt_float (float_of_int bound *. scale)))
                   !cum))
            sn.Histogram.sn_buckets;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %d\n" name (with_le "+Inf") sn.Histogram.sn_count);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" name plain
               (fmt_float (float_of_int sn.Histogram.sn_sum *. scale)));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" name plain sn.Histogram.sn_count))
      (Registry.entries registry);
    Buffer.contents buf

  let to_json ?(registry = Registry.default) () =
    let buf = Buffer.create 4096 in
    let entries = Registry.entries registry in
    let pick f = List.filter_map f entries in
    let counters =
      pick (fun e -> match e.Registry.e_metric with
        | Counter c -> Some (e.Registry.e_name, Counter.value c)
        | _ -> None)
    in
    let gauges =
      pick (fun e -> match e.Registry.e_metric with
        | Gauge g -> Some (e.Registry.e_name, Gauge.value g)
        | _ -> None)
    in
    let hists =
      pick (fun e -> match e.Registry.e_metric with
        | Histogram h -> Some (e.Registry.e_name, h, Histogram.snapshot h)
        | _ -> None)
    in
    let scalar_obj kvs =
      String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %d" (json_escape k) v) kvs)
    in
    Buffer.add_string buf "{\n";
    if !instance_ref <> "" then
      Buffer.add_string buf
        (Printf.sprintf "  \"instance\": \"%s\",\n" (json_escape !instance_ref));
    Buffer.add_string buf (Printf.sprintf "  \"counters\": {%s},\n" (scalar_obj counters));
    Buffer.add_string buf (Printf.sprintf "  \"gauges\": {%s},\n" (scalar_obj gauges));
    Buffer.add_string buf "  \"histograms\": {";
    List.iteri
      (fun i (name, h, sn) ->
        let scale = Histogram.scale sn.Histogram.sn_units in
        if i > 0 then Buffer.add_string buf ",";
        let q p = json_float (Histogram.quantile sn p *. scale) in
        let buckets =
          String.concat ", "
            (Array.to_list
               (Array.map
                  (fun (bound, n) ->
                    Printf.sprintf "[%s, %d]" (fmt_float (float_of_int bound *. scale)) n)
                  sn.Histogram.sn_buckets))
        in
        (* Exemplars only appear once a trace has been published into
           this histogram, so untraced processes keep the exact
           pre-tracing snapshot format. *)
        let exemplars =
          match Histogram.exemplars h with
          | [] -> ""
          | exs ->
            Printf.sprintf ", \"exemplars\": [%s]"
              (String.concat ", "
                 (List.map
                    (fun (bound, trace) ->
                      Printf.sprintf "[%s, \"%016Lx\"]"
                        (fmt_float (float_of_int bound *. scale)) trace)
                    exs))
        in
        Buffer.add_string buf
          (Printf.sprintf
             "\n    \"%s\": {\"count\": %d, \"sum\": %s, \"p50\": %s, \"p95\": %s, \"p99\": %s, \"buckets\": [%s]%s}"
             (json_escape name) sn.Histogram.sn_count
             (fmt_float (float_of_int sn.Histogram.sn_sum *. scale))
             (q 0.5) (q 0.95) (q 0.99) buckets exemplars))
      hists;
    if hists <> [] then Buffer.add_string buf "\n  ";
    Buffer.add_string buf "}\n}\n";
    Buffer.contents buf

  let rec ensure_dir dir =
    if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
      ensure_dir (Filename.dirname dir);
      try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end

  let ensure_parent path = ensure_dir (Filename.dirname path)

  let write_file path content =
    ensure_parent path;
    let oc = open_out path in
    output_string oc content;
    close_out oc
end
