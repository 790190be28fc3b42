(* Per-request span trees. See trace.mli for the model; the notes here
   are about the concurrency discipline.

   One traced request owns a [ctx]; every thread working on it holds a
   [tstate] (its view: innermost open span + open-frame stack) in a
   CAS-published immutable map keyed by thread id. Finished spans are
   appended to the ctx under its mutex (cheap: only at span close, and
   only for the ~1% of requests that trace at all). When the root span
   closes the whole tree moves into the per-domain rings in one pass —
   the rings only ever hold spans of {e completed} trees, so a drain
   never observes a half-built trace. A domain's ring (2048 slots) is
   made on its first publish; a drain skips the rings not made yet.

   Rings are single-writer-free: writers claim a slot with
   [fetch_and_add] and store with a plain write (drop-oldest by
   construction — the array is a power-of-two window over an
   ever-growing cursor). The drain counts the cursor distance it could
   not cover as dropped spans. Racy slot reads during a concurrent
   publish can at worst surface a span twice or miss a just-written
   one — both harmless for an admin scrape, and the OCaml memory model
   keeps them memory-safe. *)

let log_src = Logs.Src.create "slicer.trace" ~doc:"Slow-query traces"

module Log = (val Logs.src_log log_src : Logs.LOG)

type span = {
  sp_trace : int64;
  sp_id : int;
  sp_parent : int;
  sp_name : string;
  sp_instance : string;
  sp_start_ns : int;
  sp_end_ns : int;
  sp_tags : (string * string) list;
}

type wire_ctx = { w_trace : int64; w_parent : int }

let id_to_string id = Printf.sprintf "%016Lx" id

let id_of_string s =
  let ok =
    String.length s > 0 && String.length s <= 16
    && String.for_all
         (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false)
         s
  in
  if ok then Int64.of_string_opt ("0x" ^ s) else None

(* --- configuration ------------------------------------------------------ *)

let sample_rate_ref = ref 0.

let set_sample_rate p = sample_rate_ref := Float.max 0. (Float.min 1. p)

let sample_rate () = !sample_rate_ref

(* Slow threshold in ns; -1 = off. An atomic int so the per-request
   read is one load. *)
let slow_ns = Atomic.make (-1)

let set_slow_ms = function
  | None -> Atomic.set slow_ns (-1)
  | Some ms -> Atomic.set slow_ns (int_of_float (Float.max 0. ms *. 1e6))

let slow_ms () =
  match Atomic.get slow_ns with
  | n when n < 0 -> None
  | n -> Some (float_of_int n /. 1e6)

(* --- id minting and sampling (splitmix64 behind a CAS) ------------------ *)

(* Seed material beyond clock xor pid: a router and a shard forked in
   the same scheduler tick share both, and colliding streams make
   [Tree.assemble] merge two processes' spans into one bogus tree. Mix
   in /dev/urandom (finalized through splitmix64 so even a correlated
   fallback decorrelates the stream). *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let urandom64 () =
  try
    let ic = open_in_bin "/dev/urandom" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let b = really_input_string ic 8 in
        let acc = ref 0L in
        String.iter
          (fun c -> acc := Int64.logor (Int64.shift_left !acc 8) (Int64.of_int (Char.code c)))
          b;
        Some !acc)
  with _ -> None

let seed_of ~now_ns ~pid ~entropy =
  let base =
    Int64.logxor (Int64.of_int now_ns) (Int64.mul (Int64.of_int pid) 0x9E3779B97F4A7C15L)
  in
  let base = match entropy with None -> base | Some e -> Int64.logxor (mix64 e) base in
  mix64 base

let rng =
  Atomic.make
    (seed_of ~now_ns:(Obs.Clock.now_ns ()) ~pid:(Unix.getpid ()) ~entropy:(urandom64 ()))

let next64 () =
  let rec claim () =
    let s = Atomic.get rng in
    let s' = Int64.add s 0x9E3779B97F4A7C15L in
    if Atomic.compare_and_set rng s s' then s' else claim ()
  in
  let z = claim () in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let rec fresh_trace () =
  let z = next64 () in
  if z = 0L then fresh_trace () else z

let rec fresh_id () =
  let i = Int64.to_int (next64 ()) land max_int in
  if i = 0 then fresh_id () else i

(* 53-bit uniform draw in [0, 1). *)
let uniform () = Int64.to_float (Int64.shift_right_logical (next64 ()) 11) *. 0x1p-53

(* --- contexts and thread state ------------------------------------------ *)

(* Defensive cap on spans buffered per request: a runaway loop of
   [Obs.span] calls inside one traced request degrades to counting
   instead of allocating without bound. *)
let max_ctx_spans = 512

type ctx = {
  c_trace : int64;
  c_sampled : bool; (* publish unconditionally at root close *)
  c_lock : Mutex.t;
  mutable c_spans : span list; (* finished spans, root recorded last *)
  mutable c_count : int;
  mutable c_lost : int;
}

type frame = { f_id : int; f_name : string; f_t0 : int; f_saved : int }

type tstate = {
  ts_ctx : ctx;
  mutable ts_parent : int; (* innermost open span id (or remote parent) *)
  mutable ts_stack : frame list;
  mutable ts_tags : (int * (string * string)) list; (* pending, per span id *)
}

type carrier = { cr_ctx : ctx; cr_parent : int }

module Imap = Map.Make (Int)

let tls : tstate Imap.t Atomic.t = Atomic.make Imap.empty

let self_id () = Thread.id (Thread.self ())

let rec tls_update f =
  let old = Atomic.get tls in
  if not (Atomic.compare_and_set tls old (f old)) then tls_update f

let register ts =
  tls_update (Imap.add (self_id ()) ts);
  Atomic.incr Obs.trace_live

let unregister () =
  tls_update (Imap.remove (self_id ()));
  Atomic.decr Obs.trace_live

let current_ts () =
  if Atomic.get Obs.trace_live = 0 then None
  else Imap.find_opt (self_id ()) (Atomic.get tls)

(* --- the per-domain completed-span rings -------------------------------- *)

let ring_bits = 11 (* 2048 spans per ring, up to 16 rings *)
let ring_cap = 1 lsl ring_bits
let n_rings = 16

type ring = { r_slots : span option array; r_cursor : int Atomic.t; mutable r_read : int }

(* [None] until the domain's first publish: a ring is 16 KB. *)
let rings : ring option Atomic.t array = Array.init n_rings (fun _ -> Atomic.make None)

(* A racing first publish drops its ring for the CAS winner's. *)
let ring_of slot =
  match Atomic.get slot with
  | Some r -> r
  | None ->
    let r = { r_slots = Array.make ring_cap None; r_cursor = Atomic.make 0; r_read = 0 } in
    if Atomic.compare_and_set slot None (Some r) then r else Option.get (Atomic.get slot)

(* Metrics register lazily so merely linking [Trace] leaves the default
   registry (and its golden expositions) untouched. *)
let c_dropped =
  lazy (Obs.counter ~help:"trace spans overwritten or shed before a drain"
          "slicer_trace_spans_dropped_total")

let c_published =
  lazy (Obs.counter ~help:"trace trees published to the rings"
          "slicer_trace_trees_published_total")

let push_span sp =
  let r = ring_of rings.((Domain.self () :> int) land (n_rings - 1)) in
  let i = Atomic.fetch_and_add r.r_cursor 1 in
  r.r_slots.(i land (ring_cap - 1)) <- Some sp

let drain_lock = Mutex.create ()

let drain () =
  Mutex.lock drain_lock;
  let out = ref [] in
  let lost = ref 0 in
  Array.iter
    (fun slot ->
      match Atomic.get slot with
      | None -> ()
      | Some r ->
        let c = Atomic.get r.r_cursor in
        let unread = c - r.r_read in
        let take = if unread > ring_cap then ring_cap else unread in
        for i = c - take to c - 1 do
          match r.r_slots.(i land (ring_cap - 1)) with
          | Some sp -> out := sp :: !out
          | None -> ()
        done;
        lost := !lost + (unread - take);
        r.r_read <- c)
    rings;
  Mutex.unlock drain_lock;
  if !lost > 0 then Obs.Counter.add (Lazy.force c_dropped) !lost;
  !out

(* --- recording ---------------------------------------------------------- *)

let add_span ctx sp =
  Mutex.lock ctx.c_lock;
  if ctx.c_count >= max_ctx_spans then ctx.c_lost <- ctx.c_lost + 1
  else begin
    ctx.c_spans <- sp :: ctx.c_spans;
    ctx.c_count <- ctx.c_count + 1
  end;
  Mutex.unlock ctx.c_lock

let enter ts name =
  let id = fresh_id () in
  ts.ts_stack <-
    { f_id = id; f_name = name; f_t0 = Obs.Clock.now_ns (); f_saved = ts.ts_parent }
    :: ts.ts_stack;
  ts.ts_parent <- id;
  id

let exit_frame ts extra_tags =
  match ts.ts_stack with
  | [] -> ()
  | fr :: rest ->
    ts.ts_stack <- rest;
    ts.ts_parent <- fr.f_saved;
    let mine, pending = List.partition (fun (id, _) -> id = fr.f_id) ts.ts_tags in
    ts.ts_tags <- pending;
    add_span ts.ts_ctx
      { sp_trace = ts.ts_ctx.c_trace;
        sp_id = fr.f_id;
        sp_parent = fr.f_saved;
        sp_name = fr.f_name;
        sp_instance = Obs.instance ();
        sp_start_ns = fr.f_t0;
        sp_end_ns = Obs.Clock.now_ns ();
        sp_tags = List.rev_map snd mine @ extra_tags }

(* Obs.span reports its intervals through these hooks, so every
   existing deep span (acc.fold, chain.settle, ...) lands in the tree
   without its call site changing. *)
let () =
  Obs.trace_enter :=
    (fun name -> match current_ts () with None -> 0 | Some ts -> enter ts name);
  Obs.trace_exit :=
    (fun () -> match current_ts () with None -> () | Some ts -> exit_frame ts [])

let tag k v =
  match current_ts () with
  | None -> ()
  | Some ts -> ts.ts_tags <- (ts.ts_parent, (k, v)) :: ts.ts_tags

let current () =
  match current_ts () with
  | None -> None
  | Some ts -> Some { w_trace = ts.ts_ctx.c_trace; w_parent = ts.ts_parent }

let child ?(tags = []) name f =
  match current_ts () with
  | None -> f ()
  | Some ts ->
    ignore (enter ts name : int);
    (match f () with
     | r -> exit_frame ts tags; r
     | exception exn -> exit_frame ts tags; raise exn)

let capture () =
  match current_ts () with
  | None -> None
  | Some ts -> Some { cr_ctx = ts.ts_ctx; cr_parent = ts.ts_parent }

let resume car f =
  match car with
  | None -> f ()
  | Some { cr_ctx; cr_parent } ->
    (match current_ts () with
     | Some _ -> f () (* this thread already traces; don't stomp it *)
     | None ->
       let ts = { ts_ctx = cr_ctx; ts_parent = cr_parent; ts_stack = []; ts_tags = [] } in
       register ts;
       Fun.protect ~finally:unregister f)

(* --- roots: sampling, publication, the slow-query log ------------------- *)

let make_ctx ~trace ~sampled =
  { c_trace = trace;
    c_sampled = sampled;
    c_lock = Mutex.create ();
    c_spans = [];
    c_count = 0;
    c_lost = 0 }

(* No upstream context: trace when the sampler fires, and also record
   (without committing to publish) whenever a slow threshold is armed,
   so any request can be force-published after the fact. *)
let decide remote =
  match remote with
  | Some w when w.w_trace <> 0L -> Some (make_ctx ~trace:w.w_trace ~sampled:true, w.w_parent)
  | _ ->
    let p = !sample_rate_ref in
    let sampled = p > 0. && uniform () < p in
    if sampled || Atomic.get slow_ns >= 0 then
      Some (make_ctx ~trace:(fresh_trace ()) ~sampled, 0)
    else None

let publish ctx =
  List.iter
    (fun sp ->
      (match Obs.find_span_histogram sp.sp_name with
       | Some h -> Obs.Histogram.set_exemplar h ~value:(sp.sp_end_ns - sp.sp_start_ns) ~trace:sp.sp_trace
       | None -> ());
      push_span sp)
    ctx.c_spans;
  if ctx.c_lost > 0 then Obs.Counter.add (Lazy.force c_dropped) ctx.c_lost;
  Obs.Counter.incr (Lazy.force c_published)

let rec render_breakdown buf ~t0 ~depth spans parent =
  List.iter
    (fun sp ->
      if sp.sp_parent = parent then begin
        Buffer.add_string buf
          (Printf.sprintf "\n%s%s %.3f ms (+%.3f)" (String.make (2 * depth) ' ')
             sp.sp_name
             (float_of_int (sp.sp_end_ns - sp.sp_start_ns) /. 1e6)
             (float_of_int (sp.sp_start_ns - t0) /. 1e6));
        render_breakdown buf ~t0 ~depth:(depth + 1) spans sp.sp_id
      end)
    spans

let log_slow ctx root_sp dur_ns =
  let spans = List.sort (fun a b -> compare a.sp_start_ns b.sp_start_ns) ctx.c_spans in
  let buf = Buffer.create 256 in
  render_breakdown buf ~t0:root_sp.sp_start_ns ~depth:1 spans root_sp.sp_id;
  Log.warn (fun m ->
      m "slow request: trace %s %s took %.3f ms%s"
        (id_to_string ctx.c_trace) root_sp.sp_name
        (float_of_int dur_ns /. 1e6) (Buffer.contents buf))

let complete ctx =
  match ctx.c_spans with
  | [] -> ()
  | root_sp :: _ ->
    (* the root is recorded last, hence first on the list *)
    let dur = root_sp.sp_end_ns - root_sp.sp_start_ns in
    let slow = Atomic.get slow_ns in
    let slow_hit = slow >= 0 && dur >= slow in
    if ctx.c_sampled || slow_hit then begin
      publish ctx;
      if slow_hit then log_slow ctx root_sp dur
    end

let root ?remote name f =
  if not (Obs.enabled ()) then f ()
  else
    match current_ts () with
    | Some ts ->
      (* nested root (e.g. service behind an already-rooted server
         worker): just a child span *)
      ignore (enter ts name : int);
      (match f () with
       | r -> exit_frame ts []; r
       | exception exn -> exit_frame ts []; raise exn)
    | None ->
      (match decide remote with
       | None -> f ()
       | Some (ctx, parent0) ->
         let ts = { ts_ctx = ctx; ts_parent = parent0; ts_stack = []; ts_tags = [] } in
         register ts;
         ignore (enter ts name : int);
         let finish () =
           exit_frame ts [];
           unregister ();
           complete ctx
         in
         (match f () with
          | r -> finish (); r
          | exception exn -> finish (); raise exn))

(* --- assembly and rendering --------------------------------------------- *)

module Tree = struct
  type node = { n_span : span; n_children : node list }

  type t = {
    t_trace : int64;
    t_roots : node list;
    t_start_ns : int;
    t_end_ns : int;
    t_spans : int;
  }

  let assemble spans =
    let by_trace : (int64, span list ref) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun sp ->
        match Hashtbl.find_opt by_trace sp.sp_trace with
        | Some l -> l := sp :: !l
        | None -> Hashtbl.add by_trace sp.sp_trace (ref [ sp ]))
      spans;
    let tree_of trace group =
      (* dedup by span id (racy ring reads can double-report) *)
      let ids : (int, span) Hashtbl.t = Hashtbl.create 64 in
      List.iter (fun sp -> Hashtbl.replace ids sp.sp_id sp) group;
      let kids : (int, span list ref) Hashtbl.t = Hashtbl.create 64 in
      let roots = ref [] in
      Hashtbl.iter
        (fun _ sp ->
          if sp.sp_parent <> 0 && Hashtbl.mem ids sp.sp_parent && sp.sp_parent <> sp.sp_id
          then
            match Hashtbl.find_opt kids sp.sp_parent with
            | Some l -> l := sp :: !l
            | None -> Hashtbl.add kids sp.sp_parent (ref [ sp ])
          else roots := sp :: !roots)
        ids;
      let by_start a b =
        match compare a.sp_start_ns b.sp_start_ns with 0 -> compare a.sp_id b.sp_id | c -> c
      in
      let rec node_of sp =
        let children =
          match Hashtbl.find_opt kids sp.sp_id with
          | None -> []
          | Some l -> List.map node_of (List.sort by_start !l)
        in
        { n_span = sp; n_children = children }
      in
      let lo = ref max_int and hi = ref min_int in
      Hashtbl.iter
        (fun _ sp ->
          if sp.sp_start_ns < !lo then lo := sp.sp_start_ns;
          if sp.sp_end_ns > !hi then hi := sp.sp_end_ns)
        ids;
      { t_trace = trace;
        t_roots = List.map node_of (List.sort by_start !roots);
        t_start_ns = !lo;
        t_end_ns = !hi;
        t_spans = Hashtbl.length ids }
    in
    Hashtbl.fold (fun trace group acc -> tree_of trace !group :: acc) by_trace []
    |> List.sort (fun a b ->
           match compare a.t_start_ns b.t_start_ns with
           | 0 -> compare a.t_trace b.t_trace
           | c -> c)

  let duration_ms t = float_of_int (t.t_end_ns - t.t_start_ns) /. 1e6

  let render t =
    let buf = Buffer.create 512 in
    Buffer.add_string buf
      (Printf.sprintf "trace %s — %.3f ms, %d spans\n" (id_to_string t.t_trace)
         (duration_ms t) t.t_spans);
    let rec go depth node =
      let sp = node.n_span in
      let off = float_of_int (sp.sp_start_ns - t.t_start_ns) /. 1e6 in
      let dur = float_of_int (sp.sp_end_ns - sp.sp_start_ns) /. 1e6 in
      let inst = if sp.sp_instance = "" then "" else Printf.sprintf " [%s]" sp.sp_instance in
      let tags =
        String.concat "" (List.map (fun (k, v) -> Printf.sprintf " %s=%s" k v) sp.sp_tags)
      in
      Buffer.add_string buf
        (Printf.sprintf "%s%8.3f %+10.3f  %s%s%s\n"
           (String.make ((2 * depth) + 2) ' ')
           off dur sp.sp_name inst tags);
      List.iter (go (depth + 1)) node.n_children
    in
    List.iter (go 0) t.t_roots;
    Buffer.contents buf

  let json_escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  (* Complete ("X") events on one Chrome track must nest properly, but
     sibling spans of a fanned-out request genuinely overlap. Greedy
     lane assignment: each lane keeps its stack of open intervals; a
     span goes to the first lane where it either nests inside the open
     top or starts after everything closed, else opens a new lane. *)
  let assign_lanes spans =
    let lanes : int list ref list ref = ref [] in
    List.map
      (fun sp ->
        let rec place i = function
          | [] ->
            lanes := !lanes @ [ ref [ sp.sp_end_ns ] ];
            i
          | lane :: rest ->
            lane := List.filter (fun e -> e > sp.sp_start_ns) !lane;
            (match !lane with
             | [] ->
               lane := [ sp.sp_end_ns ];
               i
             | top :: _ when sp.sp_end_ns <= top ->
               lane := sp.sp_end_ns :: !lane;
               i
             | _ -> place (i + 1) rest)
        in
        (sp, place 0 !lanes))
      spans

  let to_chrome trees =
    let spans =
      List.concat_map
        (fun t ->
          let rec flat acc node = List.fold_left flat (node.n_span :: acc) node.n_children in
          List.fold_left flat [] t.t_roots)
        trees
    in
    let instances =
      List.sort_uniq compare (List.map (fun sp -> sp.sp_instance) spans)
    in
    let pid_of inst =
      let rec ix i = function
        | [] -> 0
        | x :: _ when x = inst -> i
        | _ :: rest -> ix (i + 1) rest
      in
      1 + ix 0 instances
    in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\"traceEvents\": [";
    let first = ref true in
    let emit s =
      if not !first then Buffer.add_string buf ",";
      first := false;
      Buffer.add_string buf "\n  ";
      Buffer.add_string buf s
    in
    List.iter
      (fun inst ->
        emit
          (Printf.sprintf
             "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, \"tid\": 0, \"args\": {\"name\": \"%s\"}}"
             (pid_of inst)
             (json_escape (if inst = "" then "local" else inst))))
      instances;
    List.iter
      (fun inst ->
        let mine =
          List.filter (fun sp -> sp.sp_instance = inst) spans
          |> List.sort (fun a b ->
                 match compare a.sp_start_ns b.sp_start_ns with
                 | 0 -> compare b.sp_end_ns a.sp_end_ns
                 | c -> c)
        in
        List.iter
          (fun (sp, lane) ->
            let args =
              ( "trace", id_to_string sp.sp_trace )
              :: ( "span", string_of_int sp.sp_id )
              :: sp.sp_tags
            in
            let args_s =
              String.concat ", "
                (List.map
                   (fun (k, v) ->
                     Printf.sprintf "\"%s\": \"%s\"" (json_escape k) (json_escape v))
                   args)
            in
            emit
              (Printf.sprintf
                 "{\"name\": \"%s\", \"cat\": \"slicer\", \"ph\": \"X\", \"pid\": %d, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {%s}}"
                 (json_escape sp.sp_name) (pid_of inst) lane
                 (float_of_int sp.sp_start_ns /. 1e3)
                 (float_of_int (sp.sp_end_ns - sp.sp_start_ns) /. 1e3)
                 args_s))
          (assign_lanes mine))
      instances;
    Buffer.add_string buf "\n]}\n";
    Buffer.contents buf
end
