type config = { dir : string; fsync : bool; snapshot_bytes : int }

type event = Wal.event = { ev_seq : int; ev_tag : int; ev_payload : string }

type recovery = {
  rc_snapshot : (int * string) option;
  rc_events : event list;
  rc_dropped_tail : bool;
}

exception Locked of string

type t = {
  cfg : config;
  lock : Unix.file_descr;
  wal : Wal.t;
  mutable last : int; (* highest seq materialized or appended *)
  mutable empty : bool;
}

let append_h = Obs.histogram ~help:"WAL append (write only)" "slicer_store_wal_append_seconds"
let fsync_h = Obs.histogram ~help:"WAL group-commit sync" "slicer_store_wal_fsync_seconds"
let records_c = Obs.counter ~help:"WAL records appended" "slicer_store_wal_records_total"
let bytes_c = Obs.counter ~help:"WAL payload bytes appended" "slicer_store_wal_bytes_total"
let snapshots_c = Obs.counter ~help:"Snapshots published" "slicer_store_snapshots_total"
let recoveries_c = Obs.counter ~help:"Recovery scans run" "slicer_store_recoveries_total"
let recovered_c =
  Obs.counter ~help:"WAL events replayed at recovery" "slicer_store_recovered_events_total"
let torn_c =
  Obs.counter ~help:"Recoveries that discarded torn/stale bytes" "slicer_store_torn_tails_total"
let wal_size_g = Obs.gauge ~help:"Current WAL size" "slicer_store_wal_size_bytes"

let rec mkdir_p dir =
  if dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Keep only the tail that extends the snapshot: drop records already
   materialized (seq ≤ base), then insist on a gapless +1 chain from
   base+1 — a gap means the records come from a newer epoch whose
   snapshot failed validation, and replaying them over this base would
   silently skip the middle of history. *)
let contiguous_tail ~base events =
  let rec skip = function
    | e :: rest when e.ev_seq <= base -> skip rest
    | rest -> rest
  in
  let rec take expected acc = function
    | e :: rest when e.ev_seq = expected -> take (expected + 1) (e :: acc) rest
    | rest -> (List.rev acc, rest <> [])
  in
  let kept, cut = take (base + 1) [] (skip events) in
  (kept, cut)

(* One live store per directory: an exclusive lockf(3) lock on
   <dir>/LOCK, held until [close] or process exit. POSIX record locks
   belong to the process, so a second opener in another process is
   refused while a reopen within this one (a restart in a test) is not. *)
let lock_dir dir =
  let fd = Unix.openfile (Filename.concat dir "LOCK") [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644 in
  match Unix.lockf fd Unix.F_TLOCK 0 with
  | () -> fd
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
    Unix.close fd;
    raise (Locked dir)

let open_ cfg =
  mkdir_p cfg.dir;
  let lock = lock_dir cfg.dir in
  let wal, events, torn =
    Wal.open_ ~path:(Filename.concat cfg.dir "wal.log") ~fsync:cfg.fsync
  in
  let rc_snapshot = Snapfile.load_newest ~dir:cfg.dir in
  let base = match rc_snapshot with Some (seq, _) -> seq | None -> 0 in
  let rc_events, cut = contiguous_tail ~base events in
  let dropped = torn || cut || List.length rc_events < List.length events in
  let last =
    match List.rev rc_events with e :: _ -> e.ev_seq | [] -> base
  in
  Wal.set_next_seq wal (last + 1);
  Obs.Counter.incr recoveries_c;
  Obs.Counter.add recovered_c (List.length rc_events);
  if dropped then Obs.Counter.incr torn_c;
  Obs.Gauge.set wal_size_g (Wal.size wal);
  let t =
    { cfg; lock; wal; last; empty = rc_snapshot = None && rc_events = [] }
  in
  (t, { rc_snapshot; rc_events; rc_dropped_tail = dropped })

let append_sized t ~tag payload =
  let t0 = Obs.Clock.now_ns () in
  let seq = Wal.append_sized t.wal ~tag payload in
  Obs.Histogram.record append_h (Obs.Clock.now_ns () - t0);
  Obs.Counter.incr records_c;
  Obs.Counter.add bytes_c payload.Bytesutil.size;
  Obs.Gauge.set wal_size_g (Wal.size t.wal);
  t.last <- max t.last seq;
  t.empty <- false;
  seq

let append t ~tag payload = append_sized t ~tag (Bytesutil.sized_string payload)

let sync t =
  let t0 = Obs.Clock.now_ns () in
  Wal.sync t.wal;
  Obs.Histogram.record fsync_h (Obs.Clock.now_ns () - t0)

let checkpoint t payload =
  (* Order matters: records covering the snapshot must not vanish
     until the snapshot itself is durable. [Snapfile.write] renames +
     fsyncs before we touch the WAL, so a crash anywhere in between
     recovers from either (old snapshot + full WAL) or (new snapshot +
     stale WAL records that contiguity filtering discards). *)
  Wal.sync t.wal;
  Snapfile.write ~dir:t.cfg.dir ~seq:t.last ~fsync:t.cfg.fsync payload;
  Wal.reset t.wal ~next_seq:(t.last + 1);
  t.empty <- false;
  Obs.Counter.incr snapshots_c;
  Obs.Gauge.set wal_size_g 0

let last_seq t = t.last
let wal_bytes t = Wal.size t.wal
let should_snapshot t = Wal.size t.wal >= t.cfg.snapshot_bytes
let is_empty t = t.empty
let close t =
  Wal.close t.wal;
  Unix.close t.lock
