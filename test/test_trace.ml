(* Distributed tracing, bottom-up: root/child semantics and the
   publication gates (sampling, slow threshold, remote adoption), ring
   drain accounting under domain parallelism, the wire codec's trace
   piece (an untraced request must carry none: the bytes without a
   trace context are pinned), tree
   assembly with its render/Chrome exports, and histogram exemplars. *)

module Wire = Net.Wire

let prop name ?(count = 100) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let check_contains msg needle hay =
  if not (contains ~needle hay) then
    Alcotest.failf "%s: %S not found in:\n%s" msg needle hay

(* Every test starts from empty rings; the config setters are global,
   so each test restores the defaults (rate 0, no slow threshold). *)
let clear () = ignore (Trace.drain () : Trace.span list)

let with_slow ms f =
  Trace.set_slow_ms ms;
  Fun.protect ~finally:(fun () -> Trace.set_slow_ms None) f

let with_sample p f =
  Trace.set_sample_rate p;
  Fun.protect ~finally:(fun () -> Trace.set_sample_rate 0.) f

(* --- root/child semantics ---------------------------------------------- *)

let test_off_is_passthrough () =
  clear ();
  Alcotest.(check int) "root returns the thunk's value" 42
    (Trace.root "test.off" (fun () -> 42));
  Alcotest.(check bool) "no context inside an unsampled root" true
    (Trace.root "test.off" (fun () -> Trace.current () = None));
  Alcotest.(check int) "child without a root returns too" 7
    (Trace.child "test.off.child" (fun () -> 7));
  Alcotest.(check int) "nothing published" 0 (List.length (Trace.drain ()))

let span_named name spans =
  match List.find_opt (fun sp -> sp.Trace.sp_name = name) spans with
  | Some sp -> sp
  | None -> Alcotest.failf "no span named %S drained" name

let test_nesting_tags_publish () =
  clear ();
  with_slow (Some 0.) (fun () ->
      Alcotest.(check int) "value flows through" 7
        (Trace.root "test.root" (fun () ->
             Trace.tag "who" "root";
             Trace.child ~tags:[ ("shard", "2") ] "test.child" (fun () ->
                 Trace.tag "gas" "1234";
                 7))));
  let spans = Trace.drain () in
  Alcotest.(check int) "both spans published at root close" 2 (List.length spans);
  let root = span_named "test.root" spans in
  let child = span_named "test.child" spans in
  Alcotest.(check bool) "same trace" true (root.Trace.sp_trace = child.Trace.sp_trace);
  Alcotest.(check int) "root is parentless" 0 root.Trace.sp_parent;
  Alcotest.(check int) "child hangs off the root" root.Trace.sp_id child.Trace.sp_parent;
  Alcotest.(check (list (pair string string))) "root keeps its tag"
    [ ("who", "root") ] root.Trace.sp_tags;
  Alcotest.(check (list (pair string string))) "child keeps call tags and ~tags"
    [ ("gas", "1234"); ("shard", "2") ] child.Trace.sp_tags;
  Alcotest.(check bool) "intervals are monotone and nested" true
    (root.Trace.sp_start_ns <= child.Trace.sp_start_ns
    && child.Trace.sp_start_ns <= child.Trace.sp_end_ns
    && child.Trace.sp_end_ns <= root.Trace.sp_end_ns)

let test_slow_threshold_gates () =
  clear ();
  with_slow (Some 60_000.) (fun () ->
      ignore (Trace.root "test.fast" (fun () -> ())));
  Alcotest.(check int) "a fast request under the threshold stays local" 0
    (List.length (Trace.drain ()))

let test_publishes_on_raise () =
  clear ();
  with_slow (Some 0.) (fun () ->
      try Trace.root "test.raiser" (fun () -> raise Exit) with Exit -> ());
  let spans = Trace.drain () in
  Alcotest.(check int) "exception still publishes the tree" 1 (List.length spans);
  Alcotest.(check string) "and it is the root" "test.raiser"
    (List.hd spans).Trace.sp_name

(* The slow-request warning and [slicer trace] share one renderer: the
   warning holds every line [Tree.render] gives for the published
   spans, tags included. *)
let test_slow_warning_renders_tree () =
  clear ();
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let reporter = Logs.reporter () and level = Logs.Src.level Trace.log_src in
  Logs.set_reporter (Logs.format_reporter ~app:ppf ~dst:ppf ());
  Logs.Src.set_level Trace.log_src (Some Logs.Warning);
  Fun.protect
    ~finally:(fun () ->
      Logs.set_reporter reporter;
      Logs.Src.set_level Trace.log_src level)
    (fun () ->
      with_slow (Some 0.) (fun () ->
          Trace.root "test.slow" (fun () ->
              Trace.child ~tags:[ ("shard", "1") ] "test.slow.child" (fun () -> ()))));
  Format.pp_print_flush ppf ();
  let warning = Buffer.contents buf in
  check_contains "a slow-request warning" "slow request: " warning;
  match Trace.Tree.assemble (Trace.drain ()) with
  | [ tree ] ->
    String.split_on_char '\n' (Trace.Tree.render tree)
    |> List.filter (fun line -> line <> "")
    |> List.iter (fun line -> check_contains "the warning" line warning)
  | trees -> Alcotest.failf "expected 1 tree, drained %d" (List.length trees)

let test_remote_adoption () =
  clear ();
  (* rate 0, no slow threshold: only the upstream context forces this *)
  ignore
    (Trace.root ~remote:{ Trace.w_trace = 0xabcL; w_parent = 77 } "test.remote"
       (fun () -> ()));
  match Trace.drain () with
  | [ sp ] ->
    Alcotest.(check int64) "adopts the upstream trace id" 0xabcL sp.Trace.sp_trace;
    Alcotest.(check int) "parents under the remote span" 77 sp.Trace.sp_parent
  | l -> Alcotest.failf "expected 1 span, drained %d" (List.length l)

let test_nested_root_is_child () =
  clear ();
  with_sample 1. (fun () ->
      ignore
        (Trace.root "test.outer" (fun () ->
             Trace.root "test.inner" (fun () -> ()))));
  let spans = Trace.drain () in
  Alcotest.(check int) "one tree, two spans" 2 (List.length spans);
  let outer = span_named "test.outer" spans in
  let inner = span_named "test.inner" spans in
  Alcotest.(check int) "inner root became a child" outer.Trace.sp_id
    inner.Trace.sp_parent

let test_current_context () =
  clear ();
  with_sample 1. (fun () ->
      ignore
        (Trace.root "test.ctx" (fun () ->
             let at_root = Trace.current () in
             let in_child =
               Trace.child "test.ctx.child" (fun () -> Trace.current ())
             in
             match (at_root, in_child) with
             | Some a, Some b ->
               Alcotest.(check int64) "one trace id" a.Trace.w_trace b.Trace.w_trace;
               Alcotest.(check bool) "parent follows the innermost span" true
                 (a.Trace.w_parent <> b.Trace.w_parent)
             | _ -> Alcotest.fail "no context inside a sampled root")));
  clear ()

let test_resume_across_threads () =
  clear ();
  with_slow (Some 0.) (fun () ->
      Trace.root "test.fan" (fun () ->
          let carrier = Trace.capture () in
          let helper =
            Thread.create
              (fun () ->
                Trace.resume carrier (fun () ->
                    Trace.child "test.helper" (fun () -> ())))
              ()
          in
          Thread.join helper));
  let spans = Trace.drain () in
  Alcotest.(check int) "helper span joined the tree" 2 (List.length spans);
  let fan = span_named "test.fan" spans in
  let helper = span_named "test.helper" spans in
  Alcotest.(check bool) "same trace across threads" true
    (fan.Trace.sp_trace = helper.Trace.sp_trace);
  Alcotest.(check int) "helper parents under the fan root" fan.Trace.sp_id
    helper.Trace.sp_parent

(* --- ring accounting ---------------------------------------------------- *)

let dropped () = Obs.counter_value "slicer_trace_spans_dropped_total"

let test_ring_overflow_accounting () =
  clear ();
  let before = dropped () in
  let n = 5_000 in
  (* all on one thread, hence one ring (2048 slots): must overflow *)
  with_sample 1. (fun () ->
      for _ = 1 to n do
        ignore (Trace.root "test.flood" (fun () -> ()))
      done);
  let drained = List.length (Trace.drain ()) in
  let lost = dropped () - before in
  Alcotest.(check bool) "overflow actually dropped spans" true (lost > 0);
  Alcotest.(check int) "drained + dropped = published" n (drained + lost)

let test_ring_accounting_concurrent_domains () =
  clear ();
  let before = dropped () in
  let domains = 4 and per_domain = 1_500 in
  with_sample 1. (fun () ->
      let ds =
        List.init domains (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to per_domain do
                  ignore
                    (Trace.root "test.domains" (fun () ->
                         Trace.child "test.domains.child" (fun () -> ())))
                done))
      in
      List.iter Domain.join ds);
  let drained = List.length (Trace.drain ()) in
  let lost = dropped () - before in
  Alcotest.(check int) "drained + dropped = published, exactly"
    (domains * per_domain * 2)
    (drained + lost)

let test_unsampled_overhead_sane () =
  (* The real budget (< 150 ns) is enforced by the Bechamel micro-suite
     behind @smoke; this is a coarse tripwire so a catastrophic
     regression (locks, allocation storms) fails plain `dune runtest`. *)
  clear ();
  let n = 200_000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    ignore (Trace.root "test.overhead" (fun () -> ()))
  done;
  let per = (Unix.gettimeofday () -. t0) /. float_of_int n in
  if per > 5e-6 then
    Alcotest.failf "unsampled root costs %.2f us/op" (per *. 1e6)

(* --- ids and the wire codec --------------------------------------------- *)

let test_id_strings () =
  Alcotest.(check string) "hex form" "0000000000c0ffee" (Trace.id_to_string 0xc0ffeeL);
  Alcotest.(check (option int64)) "negative ids survive" (Some (-1L))
    (Trace.id_of_string "ffffffffffffffff");
  Alcotest.(check (option int64)) "garbage refused" None (Trace.id_of_string "xyz");
  Alcotest.(check (option int64)) "empty refused" None (Trace.id_of_string "");
  Alcotest.(check (option int64)) "too long refused" None
    (Trace.id_of_string "00000000000000000")

let gen_id64 =
  QCheck2.Gen.(
    map2
      (fun hi lo ->
        let v =
          Int64.logor (Int64.shift_left (Int64.of_int hi) 31) (Int64.of_int lo)
        in
        if v = 0L then 1L else v)
      (int_range 0 ((1 lsl 31) - 1))
      (int_range 0 ((1 lsl 31) - 1)))

let id_props =
  [ prop "trace id hex round-trips" ~count:300 gen_id64 (fun id ->
        Trace.id_of_string (Trace.id_to_string id) = Some id) ]

let gen_bytes = QCheck2.Gen.(string_size (int_range 0 12))

let gen_token =
  QCheck2.Gen.(
    map
      (fun (((td, ups), g1), g2) ->
        { Slicer_types.st_trapdoor = td; st_updates = ups; st_g1 = g1; st_g2 = g2 })
      (pair (pair (pair gen_bytes small_nat) gen_bytes) gen_bytes))

let gen_trace_ctx =
  QCheck2.Gen.(
    opt (map2 (fun t p -> { Trace.w_trace = t; w_parent = p }) gen_id64 small_nat))

let gen_search =
  QCheck2.Gen.(
    map
      (fun ((((client, request_id), batched), tokens), trace) ->
        Wire.Search { client; request_id; batched; tokens; trace })
      (pair
         (pair (pair (pair gen_bytes gen_bytes) bool) (list_size (int_range 0 4) gen_token))
         gen_trace_ctx))

let search_props =
  [ prop "Search round-trips with and without a trace context" ~count:200 gen_search
      (fun req -> Wire.decode_request (Wire.encode_request req) = Some req) ]

let test_v2_byte_identity () =
  let tokens =
    [ { Slicer_types.st_trapdoor = "td-0"; st_updates = 3; st_g1 = "g1"; st_g2 = "g2" } ]
  in
  let req =
    Wire.Search
      { client = "alice"; request_id = "req-1"; batched = true; tokens; trace = None }
  in
  let legacy =
    Bytesutil.concat
      [ "search"; "alice"; "req-1"; "1"; Persist.tokens_to_bytes tokens ]
  in
  Alcotest.(check string) "trace-less Search carries no trace piece" legacy
    (Wire.encode_request req);
  Alcotest.(check bool) "trace-less bytes decode with no trace" true
    (Wire.decode_request legacy = Some req);
  let ctx = { Trace.w_trace = 0xdeadbeefL; w_parent = 42 } in
  let stamped = Wire.with_trace (Some ctx) req in
  Alcotest.(check bool) "stamping changes the bytes" true
    (Wire.encode_request stamped <> legacy);
  Alcotest.(check bool) "stamped request round-trips" true
    (Wire.decode_request (Wire.encode_request stamped) = Some stamped);
  Alcotest.(check bool) "with_trace on Ping is the identity" true
    (Wire.with_trace (Some ctx) Wire.Ping = Wire.Ping);
  Alcotest.(check string) "Traces is a bare admin verb"
    (Bytesutil.concat [ "traces" ])
    (Wire.encode_request Wire.Traces)

let gen_span =
  QCheck2.Gen.(
    map
      (fun ((((trace, (id, parent)), name), inst), ((s, e), tags)) ->
        { Trace.sp_trace = trace;
          sp_id = id + 1;
          sp_parent = parent;
          sp_name = name;
          sp_instance = inst;
          sp_start_ns = s;
          sp_end_ns = s + e;
          sp_tags = tags })
      (pair
         (pair (pair (pair gen_id64 (pair small_nat small_nat)) gen_bytes) gen_bytes)
         (pair
            (pair (int_range 0 1_000_000) (int_range 0 1_000_000))
            (list_size (int_range 0 3) (pair gen_bytes gen_bytes)))))

let span_props =
  [ prop "Traces_reply span lists round-trip" ~count:200
      QCheck2.Gen.(list_size (int_range 0 5) gen_span)
      (fun tr_spans ->
        let resp = Wire.Traces_reply { tr_spans } in
        Wire.decode_response (Wire.encode_response resp) = Some resp) ]

let test_span_codec_rejects_zero_ids () =
  let bad id trace =
    Wire.Traces_reply
      { tr_spans =
          [ { Trace.sp_trace = trace; sp_id = id; sp_parent = 0; sp_name = "x";
              sp_instance = ""; sp_start_ns = 0; sp_end_ns = 1; sp_tags = [] } ] }
  in
  Alcotest.(check bool) "zero span id refused" true
    (Wire.decode_response (Wire.encode_response (bad 0 1L)) = None);
  Alcotest.(check bool) "zero trace id refused" true
    (Wire.decode_response (Wire.encode_response (bad 1 0L)) = None)

(* --- tree assembly and exports ------------------------------------------ *)

let sp ?(trace = 7L) ?(parent = 0) ?(inst = "") ?(tags = []) ~id ~s ~e name =
  { Trace.sp_trace = trace; sp_id = id; sp_parent = parent; sp_name = name;
    sp_instance = inst; sp_start_ns = s; sp_end_ns = e; sp_tags = tags }

let names nodes = List.map (fun n -> n.Trace.Tree.n_span.Trace.sp_name) nodes

let test_assemble () =
  let spans =
    [ sp ~id:10 ~s:0 ~e:100 "root";
      sp ~id:11 ~parent:10 ~s:10 ~e:60 "mid";
      sp ~id:12 ~parent:11 ~s:20 ~e:40 "leaf";
      sp ~id:13 ~parent:999 ~s:70 ~e:90 "orphan";
      (* a racy ring read can surface a span twice *)
      sp ~id:11 ~parent:10 ~s:10 ~e:60 "mid";
      sp ~trace:9L ~id:20 ~s:200 ~e:260 "late" ]
  in
  match Trace.Tree.assemble spans with
  | [ a; b ] ->
    Alcotest.(check int64) "trees ordered by start" 7L a.Trace.Tree.t_trace;
    Alcotest.(check int64) "the later trace follows" 9L b.Trace.Tree.t_trace;
    Alcotest.(check int) "duplicate span deduped" 4 a.Trace.Tree.t_spans;
    Alcotest.(check int) "lo bound" 0 a.Trace.Tree.t_start_ns;
    Alcotest.(check int) "hi bound" 100 a.Trace.Tree.t_end_ns;
    Alcotest.(check (list string)) "undrained parent makes a second root"
      [ "root"; "orphan" ] (names a.Trace.Tree.t_roots);
    (match a.Trace.Tree.t_roots with
     | { Trace.Tree.n_children = [ mid ]; _ } :: _ ->
       Alcotest.(check (list string)) "chain root -> mid -> leaf" [ "leaf" ]
         (names mid.Trace.Tree.n_children)
     | _ -> Alcotest.fail "root lost its child");
    Alcotest.(check (float 1e-9)) "duration_ms" 1e-4 (Trace.Tree.duration_ms a)
  | l -> Alcotest.failf "expected 2 trees, got %d" (List.length l)

let test_render () =
  let trees =
    Trace.Tree.assemble
      [ sp ~id:10 ~s:0 ~e:2_000_000 "a";
        sp ~id:11 ~parent:10 ~inst:"s1" ~tags:[ ("x", "y") ] ~s:500_000 ~e:1_500_000 "b" ]
  in
  match trees with
  | [ t ] ->
    Alcotest.(check string) "indented timeline"
      ("trace 0000000000000007 — 2.000 ms, 2 spans\n"
      ^ "     0.000     +2.000  a\n"
      ^ "       0.500     +1.000  b [s1] x=y\n")
      (Trace.Tree.render t)
  | l -> Alcotest.failf "expected 1 tree, got %d" (List.length l)

let test_chrome_export () =
  let trees =
    Trace.Tree.assemble
      [ sp ~id:10 ~s:0 ~e:100_000 "root";
        (* overlapping, non-nested siblings must land on distinct lanes *)
        sp ~id:11 ~parent:10 ~s:10_000 ~e:60_000 "k1";
        sp ~id:12 ~parent:10 ~s:20_000 ~e:80_000 "k2";
        sp ~id:13 ~parent:10 ~inst:"s1" ~tags:[ ("shard", "1") ] ~s:15_000 ~e:55_000
          "remote" ]
  in
  let j = Trace.Tree.to_chrome trees in
  check_contains "event array" "{\"traceEvents\": [" j;
  check_contains "anonymous instance is named local"
    "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"args\": {\"name\": \"local\"}}"
    j;
  check_contains "remote instance gets its own pid"
    "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, \"tid\": 0, \"args\": {\"name\": \"s1\"}}"
    j;
  check_contains "complete events" "\"ph\": \"X\"" j;
  check_contains "trace id rides in args" "\"trace\": \"0000000000000007\"" j;
  check_contains "tags ride in args" "\"shard\": \"1\"" j;
  check_contains "overlapping sibling spilled to a second lane" "\"tid\": 1" j;
  Alcotest.(check bool) "closes the document" true
    (String.length j > 4 && String.sub j (String.length j - 4) 4 = "\n]}\n")

(* --- exemplars ----------------------------------------------------------- *)

let test_exemplars () =
  let r = Obs.Registry.create () in
  let h = Obs.histogram ~registry:r ~units:Obs.Histogram.Raw "slicer_test_exemplar" in
  Alcotest.(check (list (pair int int64))) "empty until a trace publishes" []
    (Obs.Histogram.exemplars h);
  Obs.Histogram.record h 3;
  Obs.Histogram.set_exemplar h ~value:3 ~trace:0xabcL;
  Obs.Histogram.set_exemplar h ~value:3 ~trace:0xdefL;
  Obs.Histogram.set_exemplar h ~value:200 ~trace:0L;
  (match Obs.Histogram.exemplars h with
   | [ (bound, id) ] ->
     Alcotest.(check int) "bound holds the value" 3 bound;
     Alcotest.(check int64) "last writer wins" 0xdefL id
   | l -> Alcotest.failf "expected 1 exemplar, got %d" (List.length l));
  check_contains "exposed in the JSON snapshot"
    "\"exemplars\": [[3, \"0000000000000def\"]]"
    (Obs.Export.to_json ~registry:r ())

(* Regression: two processes (or a fork pair) sharing a clock tick and
   a recycled pid used to derive the same id-generator seed, colliding
   their trace ids. The /dev/urandom word must separate seeds even when
   (now, pid) collide exactly. *)
let test_seed_entropy_separates () =
  let now_ns = 1_723_000_000_000_000_000 and pid = 4242 in
  let a = Trace.seed_of ~now_ns ~pid ~entropy:(Some 1L) in
  let b = Trace.seed_of ~now_ns ~pid ~entropy:(Some 2L) in
  let c = Trace.seed_of ~now_ns ~pid ~entropy:None in
  Alcotest.(check bool) "distinct entropy, distinct seeds" true (a <> b);
  Alcotest.(check bool) "entropy perturbs the fallback seed" true (a <> c && b <> c);
  let seen = Hashtbl.create 256 in
  for i = 1 to 256 do
    Hashtbl.replace seen (Trace.seed_of ~now_ns ~pid ~entropy:(Some (Int64.of_int i))) ()
  done;
  Alcotest.(check int) "256 entropy words, 256 seeds" 256 (Hashtbl.length seen);
  (* And the fallback still separates distinct (now, pid) pairs. *)
  Alcotest.(check bool) "clock separates seeds without entropy" true
    (Trace.seed_of ~now_ns ~pid ~entropy:None
     <> Trace.seed_of ~now_ns:(now_ns + 1) ~pid ~entropy:None)

let () =
  Alcotest.run "trace"
    [ ( "roots",
        [ Alcotest.test_case "off is a passthrough" `Quick test_off_is_passthrough;
          Alcotest.test_case "nesting, tags, publish" `Quick test_nesting_tags_publish;
          Alcotest.test_case "slow threshold gates" `Quick test_slow_threshold_gates;
          Alcotest.test_case "the slow warning renders the tree" `Quick
            test_slow_warning_renders_tree;
          Alcotest.test_case "publishes on raise" `Quick test_publishes_on_raise;
          Alcotest.test_case "remote context adopted" `Quick test_remote_adoption;
          Alcotest.test_case "nested root is a child" `Quick test_nested_root_is_child;
          Alcotest.test_case "current follows the stack" `Quick test_current_context;
          Alcotest.test_case "capture/resume across threads" `Quick
            test_resume_across_threads ] );
      ( "rings",
        [ Alcotest.test_case "overflow accounting" `Quick test_ring_overflow_accounting;
          Alcotest.test_case "4 domains, exact accounting" `Quick
            test_ring_accounting_concurrent_domains;
          Alcotest.test_case "unsampled overhead tripwire" `Quick
            test_unsampled_overhead_sane ] );
      ( "wire",
        Alcotest.test_case "id strings" `Quick test_id_strings
        :: Alcotest.test_case "seed entropy separates processes" `Quick
             test_seed_entropy_separates
        :: Alcotest.test_case "revision-2 byte identity" `Quick test_v2_byte_identity
        :: Alcotest.test_case "zero ids refused" `Quick test_span_codec_rejects_zero_ids
        :: (id_props @ search_props @ span_props) );
      ( "trees",
        [ Alcotest.test_case "assemble" `Quick test_assemble;
          Alcotest.test_case "render timeline" `Quick test_render;
          Alcotest.test_case "chrome export" `Quick test_chrome_export ] );
      ("exemplars", [ Alcotest.test_case "bucket exemplars" `Quick test_exemplars ]) ]
