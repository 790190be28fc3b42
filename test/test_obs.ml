(* The observability layer: histogram bucketing invariants, the merge
   property (sharded/partitioned recording is snapshot-equivalent to
   recording everything into one instrument), golden exposition
   output, exact totals under domain parallelism, span semantics, and
   the percentile formula the load driver reports. *)

let prop name ?(count = 200) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* --- bucketing -------------------------------------------------------- *)

let bucket_props =
  [ prop "bucket bound bounds the value within ~6%" ~count:500
      QCheck2.Gen.(
        oneof
          [ int_range 0 1000; int_range 0 1_000_000_000; int_range 0 ((1 lsl 60) - 1) ])
      (fun v ->
        let b = Obs.Histogram.bucket_of v in
        let bound = Obs.Histogram.bucket_bound b in
        (* The bucket holds the value, and is not much wider than an
           HDR sub-bucket: bound <= v + v/16 + 1. *)
        bound >= v && bound <= v + (v asr 4) + 1);
    prop "values beyond the 2^60 clamp land in the top bucket" ~count:100
      QCheck2.Gen.(int_range (1 lsl 60) max_int)
      (fun v ->
        (* ~36 years in ns: anything this large saturates rather than
           overflowing or raising. *)
        Obs.Histogram.bucket_of v = Obs.Histogram.bucket_of max_int);
    prop "bucket_of is monotone" ~count:500
      QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 0 1_000_000))
      (fun (a, b) ->
        let a, b = (min a b, max a b) in
        Obs.Histogram.bucket_of a <= Obs.Histogram.bucket_of b) ]

(* --- merge ------------------------------------------------------------ *)

let snapshot_eq (a : Obs.Histogram.snapshot) (b : Obs.Histogram.snapshot) =
  a.Obs.Histogram.sn_units = b.Obs.Histogram.sn_units
  && a.Obs.Histogram.sn_count = b.Obs.Histogram.sn_count
  && a.Obs.Histogram.sn_sum = b.Obs.Histogram.sn_sum
  && a.Obs.Histogram.sn_buckets = b.Obs.Histogram.sn_buckets

let merge_props =
  [ prop "partitioned recording merges to the direct snapshot" ~count:100
      QCheck2.Gen.(pair (int_range 1 5) (list_size (int_range 0 200) (int_range 0 100_000)))
      (fun (parts, values) ->
        let r = Obs.Registry.create () in
        let direct = Obs.histogram ~registry:r ~units:Obs.Histogram.Raw "direct" in
        let shards =
          Array.init parts (fun i ->
              Obs.histogram ~registry:r ~units:Obs.Histogram.Raw (Printf.sprintf "part-%d" i))
        in
        List.iteri
          (fun i v ->
            Obs.Histogram.record direct v;
            Obs.Histogram.record shards.(i mod parts) v)
          values;
        let merged = Obs.histogram ~registry:r ~units:Obs.Histogram.Raw "merged" in
        Array.iter (fun src -> Obs.Histogram.merge_into ~src ~dst:merged) shards;
        snapshot_eq (Obs.Histogram.snapshot direct) (Obs.Histogram.snapshot merged)) ]

let test_merge_units_mismatch () =
  let r = Obs.Registry.create () in
  let s = Obs.histogram ~registry:r ~units:Obs.Histogram.Seconds "s" in
  let g = Obs.histogram ~registry:r ~units:Obs.Histogram.Raw "g" in
  Alcotest.(check bool) "units mismatch raises" true
    (try Obs.Histogram.merge_into ~src:s ~dst:g; false with Invalid_argument _ -> true)

(* --- golden exposition ------------------------------------------------ *)

(* A tiny fixed registry, so the exact exposition bytes are pinned:
   format drift in either encoder is a deliberate, visible change. *)
let golden_registry () =
  let r = Obs.Registry.create () in
  let c = Obs.counter ~registry:r ~help:"requests served" "slicer_test_requests_total" in
  Obs.Counter.add c 3;
  let g = Obs.gauge ~registry:r "slicer_test_inflight" in
  Obs.Gauge.set g 7;
  let h = Obs.histogram ~registry:r ~help:"gas" ~units:Obs.Histogram.Raw "slicer_test_gas" in
  List.iter (Obs.Histogram.record h) [ 1; 1; 5; 200 ];
  (* Registered but never recorded: its JSON quantiles must be null,
     since JSON has no NaN. *)
  ignore (Obs.histogram ~registry:r ~help:"idle" "slicer_test_idle_seconds" : Obs.Histogram.t);
  r

let expected_prometheus =
  "# HELP slicer_test_gas gas\n\
   # TYPE slicer_test_gas histogram\n\
   slicer_test_gas_bucket{le=\"1\"} 2\n\
   slicer_test_gas_bucket{le=\"5\"} 3\n\
   slicer_test_gas_bucket{le=\"207\"} 4\n\
   slicer_test_gas_bucket{le=\"+Inf\"} 4\n\
   slicer_test_gas_sum 207\n\
   slicer_test_gas_count 4\n\
   # HELP slicer_test_idle_seconds idle\n\
   # TYPE slicer_test_idle_seconds histogram\n\
   slicer_test_idle_seconds_bucket{le=\"+Inf\"} 0\n\
   slicer_test_idle_seconds_sum 0\n\
   slicer_test_idle_seconds_count 0\n\
   # TYPE slicer_test_inflight gauge\n\
   slicer_test_inflight 7\n\
   # HELP slicer_test_requests_total requests served\n\
   # TYPE slicer_test_requests_total counter\n\
   slicer_test_requests_total 3\n"

let expected_json =
  "{\n\
  \  \"counters\": {\"slicer_test_requests_total\": 3},\n\
  \  \"gauges\": {\"slicer_test_inflight\": 7},\n\
  \  \"histograms\": {\n\
  \    \"slicer_test_gas\": {\"count\": 4, \"sum\": 207, \"p50\": 1, \"p95\": 207, \
   \"p99\": 207, \"buckets\": [[1, 2], [5, 1], [207, 1]]},\n\
  \    \"slicer_test_idle_seconds\": {\"count\": 0, \"sum\": 0, \"p50\": null, \"p95\": null, \
   \"p99\": null, \"buckets\": []}\n\
  \  }\n\
   }\n"

let test_export_golden () =
  let r = golden_registry () in
  Alcotest.(check string) "prometheus text" expected_prometheus
    (Obs.Export.to_prometheus ~registry:r ());
  Alcotest.(check string) "json" expected_json (Obs.Export.to_json ~registry:r ())

(* --- exact totals under domain parallelism ----------------------------- *)

let test_parallel_totals_exact () =
  let r = Obs.Registry.create () in
  let c = Obs.counter ~registry:r "par_total" in
  let h = Obs.histogram ~registry:r ~units:Obs.Histogram.Raw "par_hist" in
  let domains = 4 and per_domain = 25_000 in
  let worker d =
    Domain.spawn (fun () ->
        for i = 1 to per_domain do
          Obs.Counter.incr c;
          Obs.Histogram.record h ((d * per_domain) + i)
        done)
  in
  let ds = List.init domains worker in
  List.iter Domain.join ds;
  Alcotest.(check int) "counter exact" (domains * per_domain) (Obs.Counter.value c);
  let sn = Obs.Histogram.snapshot h in
  Alcotest.(check int) "histogram count exact" (domains * per_domain) sn.Obs.Histogram.sn_count;
  let n = domains * per_domain in
  Alcotest.(check int) "histogram sum exact" (n * (n + 1) / 2) sn.Obs.Histogram.sn_sum;
  Alcotest.(check int) "bucket counts sum to the total" n
    (Array.fold_left (fun acc (_, k) -> acc + k) 0 sn.Obs.Histogram.sn_buckets)

(* --- instrument memory -------------------------------------------------- *)

(* A histogram costs only the domains that record into it: ~56 words
   fresh, and ~2,740 more (912 bucket cells and a sum) for each domain
   whose first record allocates its shard. *)
let test_histogram_memory_follows_use () =
  let r = Obs.Registry.create () in
  let h = Obs.histogram ~registry:r ~units:Obs.Histogram.Raw "mem_hist" in
  let at_most what bound =
    let words = Obj.reachable_words (Obj.repr h) in
    if words > bound then Alcotest.failf "%s: %d words, over %d" what words bound
  in
  at_most "fresh" 512;
  Obs.Histogram.record h 42;
  at_most "after a record on this domain" 4096;
  Domain.join (Domain.spawn (fun () -> Obs.Histogram.record h 43));
  at_most "after a record from a second domain" 8192;
  Alcotest.(check int) "both records counted" 2 (Obs.Histogram.snapshot h).Obs.Histogram.sn_count

(* A sample reads the resident set from procfs without a channel, and
   still sets the gauge (where the host has /proc). *)
let test_sample_memory_sets_resident () =
  Obs.sample_memory ();
  let gauge name = Obs.Gauge.value (Obs.gauge name) in
  Alcotest.(check bool) "major heap gauge" true (gauge "slicer_ocaml_major_heap_bytes" > 0);
  if Sys.file_exists "/proc/self/statm" then
    Alcotest.(check bool) "resident set gauge" true (gauge "slicer_process_resident_bytes" > 0)

(* --- spans ------------------------------------------------------------- *)

(* Spans land in the process-global default registry; reach the same
   instrument by name to observe them. *)
let span_count name =
  let h = Obs.histogram (Obs.metric_of_span name) in
  (Obs.Histogram.snapshot h).Obs.Histogram.sn_count

let test_span_records () =
  let before = span_count "test.alpha" in
  Alcotest.(check int) "span returns the thunk's value" 41
    (Obs.span "test.alpha" (fun () -> 41));
  Alcotest.(check int) "one observation" (before + 1) (span_count "test.alpha")

let test_span_records_on_raise () =
  let before = span_count "test.raiser" in
  (try Obs.span "test.raiser" (fun () -> raise Exit) with Exit -> ());
  Alcotest.(check int) "exception still timed" (before + 1) (span_count "test.raiser")

let test_disabled_is_noop () =
  let before = span_count "test.off" in
  let r = Obs.Registry.create () in
  let c = Obs.counter ~registry:r "off_total" in
  Obs.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled true)
    (fun () ->
      Alcotest.(check int) "span still runs the thunk" 7 (Obs.span "test.off" (fun () -> 7));
      Obs.Counter.add c 5);
  Alcotest.(check int) "no span recorded" before (span_count "test.off");
  Alcotest.(check int) "no count recorded" 0 (Obs.Counter.value c)

let test_metric_of_span () =
  List.iter
    (fun (span, metric) -> Alcotest.(check string) span metric (Obs.metric_of_span span))
    [ ("core.build", "slicer_core_build_seconds");
      ("acc.prime-derive", "slicer_acc_prime_derive_seconds");
      ("search", "slicer_search_seconds") ]

let test_span_overhead_sane () =
  (* The real budget (< 1 us) is enforced by the Bechamel micro-suite;
     this is a coarse tripwire so a catastrophic regression (locks,
     allocation storms) fails fast even in `dune runtest`. *)
  let n = 200_000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    ignore (Obs.span "test.overhead" (fun () -> ()))
  done;
  let per_span = (Unix.gettimeofday () -. t0) /. float_of_int n in
  if per_span > 20e-6 then
    Alcotest.failf "span overhead %.1f us/op is out of control" (per_span *. 1e6)

(* --- the percentile formula ------------------------------------------- *)

let test_percentile () =
  let a = [| 1.; 2.; 3.; 4. |] in
  Alcotest.(check (float 1e-9)) "p50" 2. (Obs.Summary.percentile a 50.);
  Alcotest.(check (float 1e-9)) "p95" 4. (Obs.Summary.percentile a 95.);
  Alcotest.(check (float 1e-9)) "p99" 4. (Obs.Summary.percentile a 99.);
  Alcotest.(check (float 1e-9)) "p25 of singleton" 9. (Obs.Summary.percentile [| 9. |] 25.);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Obs.Summary.percentile [||] 50.))

let test_counter_get_or_create () =
  let r = Obs.Registry.create () in
  let a = Obs.counter ~registry:r "shared_total" in
  let b = Obs.counter ~registry:r "shared_total" in
  Obs.Counter.incr a;
  Obs.Counter.incr b;
  Alcotest.(check int) "same instrument by name" 2 (Obs.counter_value ~registry:r "shared_total");
  Alcotest.(check int) "absent counter reads 0" 0 (Obs.counter_value ~registry:r "absent");
  Alcotest.(check bool) "kind clash raises" true
    (try ignore (Obs.gauge ~registry:r "shared_total"); false with Invalid_argument _ -> true)

let () =
  Alcotest.run "obs"
    [ ("buckets", bucket_props);
      ( "merge",
        Alcotest.test_case "units mismatch" `Quick test_merge_units_mismatch :: merge_props );
      ("export", [ Alcotest.test_case "golden exposition" `Quick test_export_golden ]);
      ( "concurrency",
        [ Alcotest.test_case "4 domains, exact totals" `Quick test_parallel_totals_exact ] );
      ( "memory",
        [ Alcotest.test_case "histogram storage follows recording domains" `Quick
            test_histogram_memory_follows_use;
          Alcotest.test_case "a sample sets the resident set gauge" `Quick
            test_sample_memory_sets_resident ] );
      ( "spans",
        [ Alcotest.test_case "records and returns" `Quick test_span_records;
          Alcotest.test_case "records on raise" `Quick test_span_records_on_raise;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "metric naming" `Quick test_metric_of_span;
          Alcotest.test_case "overhead tripwire" `Quick test_span_overhead_sane ] );
      ( "registry",
        [ Alcotest.test_case "percentile formula" `Quick test_percentile;
          Alcotest.test_case "get-or-create by name" `Quick test_counter_get_or_create ] ) ]
