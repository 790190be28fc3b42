(* Shared plumbing for the figure/table harnesses: scales, timing,
   series rendering, and system construction. *)

type scale = {
  label : string;
  widths : int list;        (* value bit-counts: the paper uses 8/16/24 *)
  sizes : int list;         (* record counts: the paper uses 10K..160K *)
  order_sizes : int list;   (* sizes for order-search points (VO gen is O(|X|) per token) *)
  insert_preload : int;     (* Fig. 7 preload (paper: 160K) *)
  insert_batches : int list;
  queries_per_point : int;
}

(* Defaults are scaled to finish in minutes on a laptop while keeping
   every curve's shape; --full pushes toward paper-scale counts. *)
let default_scale =
  { label = "default (scaled; run with --full for paper-scale counts)";
    widths = [ 8; 12 ];
    sizes = [ 250; 500; 1000; 2000 ];
    order_sizes = [ 250; 500; 1000 ];
    insert_preload = 1000;
    insert_batches = [ 50; 100; 200; 400 ];
    queries_per_point = 2 }

let full_scale =
  { label = "full";
    widths = [ 8; 16 ];
    sizes = [ 2500; 5000; 10000; 20000 ];
    order_sizes = [ 1000; 2500 ];
    insert_preload = 10000;
    insert_batches = [ 250; 500; 1000; 2000 ];
    queries_per_point = 3 }

(* Seconds-scale points so `dune runtest` can exercise the whole harness
   (including the --json emitter) inside the tier-1 budget. *)
let smoke_scale =
  { label = "smoke (tiny; exercised by dune runtest)";
    widths = [ 8 ];
    sizes = [ 50; 100 ];
    order_sizes = [ 50 ];
    insert_preload = 50;
    insert_batches = [ 10; 20 ];
    queries_per_point = 1 }

let scale_of_label = function
  | "smoke" -> Some smoke_scale
  | "default" -> Some default_scale
  | "full" -> Some full_scale
  | _ -> None

(* --- machine-readable output (--json FILE) ------------------------------ *)

(* Figure modules call [json_row] for every measured point; [write_json]
   dumps the accumulated rows as a JSON array. Hand-rolled writer: the
   value space is figure/series labels, ints and floats only. *)

let json_rows : string list ref = ref []

(* Figures measured by this run: [write_json] replaces their rows in an
   existing output file and keeps everything else, so one BENCH file
   can accumulate micro + witness rows across separate runs. *)
let emitted_figures : (string, unit) Hashtbl.t = Hashtbl.create 8

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

type json_value = J_str of string | J_int of int | J_float of float

let json_row ~figure ~series fields =
  let field (k, v) =
    let value =
      match v with
      | J_str s -> Printf.sprintf "\"%s\"" (json_escape s)
      | J_int i -> string_of_int i
      | J_float f ->
        if Float.is_finite f then Printf.sprintf "%.6f" f else "null"
    in
    Printf.sprintf "\"%s\": %s" (json_escape k) value
  in
  let all = ("figure", J_str figure) :: ("series", J_str series) :: fields in
  Hashtbl.replace emitted_figures figure ();
  json_rows := Printf.sprintf "{%s}" (String.concat ", " (List.map field all)) :: !json_rows

(* [json_row] puts the figure field first, and figure labels are plain
   identifiers — no escapes to worry about when reading them back. *)
let row_figure line =
  let tag = "\"figure\": \"" in
  let tl = String.length tag in
  if String.length line >= 1 + tl && String.sub line 1 tl = tag then begin
    match String.index_from_opt line (1 + tl) '"' with
    | Some e -> Some (String.sub line (1 + tl) (e - 1 - tl))
    | None -> None
  end
  else None

(* Rows already in the output file, one per line as [write_json] laid
   them out. A file this writer didn't produce yields no rows — the
   run then starts the file over rather than corrupting it. *)
let read_json_rows path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in_bin path in
    let content = really_input_string ic (in_channel_length ic) in
    close_in ic;
    String.split_on_char '\n' content
    |> List.filter_map (fun line ->
           let line = String.trim line in
           let line =
             if String.length line > 0 && line.[String.length line - 1] = ',' then
               String.sub line 0 (String.length line - 1)
             else line
           in
           if String.length line > 1 && line.[0] = '{' && row_figure line <> None then Some line
           else None)
  end

let write_json path =
  Obs.Export.ensure_parent path;
  (* Merge by figure: rows from figures this run re-measured are
     replaced; rows from figures it didn't touch survive. *)
  let kept =
    List.filter
      (fun line ->
        match row_figure line with
        | Some fig -> not (Hashtbl.mem emitted_figures fig)
        | None -> false)
      (read_json_rows path)
  in
  let rows = kept @ List.rev !json_rows in
  let oc = open_out path in
  output_string oc "[\n";
  output_string oc (String.concat ",\n" rows);
  output_string oc "\n]\n";
  close_out oc;
  Printf.printf "\nwrote %d benchmark rows to %s (%d kept from earlier runs)\n"
    (List.length rows) path (List.length kept)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subheader s = Printf.printf "\n-- %s --\n" s

let row_header cols = Printf.printf "%s\n" (String.concat "  " (List.map (Printf.sprintf "%12s") cols))

let row label cells =
  Printf.printf "%12s  %s\n" label (String.concat "  " (List.map (Printf.sprintf "%12s") cells))

let seconds s = Printf.sprintf "%.3fs" s
let mb bytes = Printf.sprintf "%.3fMB" (float_of_int bytes /. 1_048_576.)
let kb bytes = Printf.sprintf "%.1fKB" (float_of_int bytes /. 1024.)

(* A built owner+cloud pair (no chain) for the protocol-cost figures. *)
type bench_system = {
  bs_owner : Owner.t;
  bs_cloud : Cloud.t;
  bs_user : User.t;
  bs_rng : Drbg.t;
  bs_records : Slicer_types.record list;
  bs_width : int;
}

(* Systems are memoized per (width, size): fig3/4 and fig5/6 share the
   same builds instead of reconstructing them. *)
let system_cache : (int * int, bench_system) Hashtbl.t = Hashtbl.create 16

let build_system_uncached ~width ~size =
  let rng = Drbg.create ~seed:(Printf.sprintf "bench-%d-%d" width size) in
  let keys = Keys.generate ~tdp_bits:512 ~rng () in
  let acc_params = Rsa_acc.setup ~rng ~bits:512 () in
  let owner = Owner.create ~width ~rng ~acc_params ~keys () in
  let records = Gen.uniform_records ~rng ~width size in
  let shipment = Owner.build owner records in
  let cloud = Cloud.create ~acc_params ~tdp_public:keys.Keys.tdp_public () in
  (* Without the owner's witnesses: Fig. 5's "VO gen" times the cloud
     computing each witness, as the paper's cloud does. *)
  Cloud.install_shipment cloud { shipment with Owner.sh_witnesses = [] };
  let user = User.create ~keys:(Keys.for_user keys) ~width (Owner.export_trapdoor_state owner) in
  { bs_owner = owner; bs_cloud = cloud; bs_user = user; bs_rng = rng; bs_records = records; bs_width = width }

let build_system ~width ~size =
  match Hashtbl.find_opt system_cache (width, size) with
  | Some sys -> sys
  | None ->
    let sys = build_system_uncached ~width ~size in
    Hashtbl.replace system_cache (width, size) sys;
    sys

(* Average a measurement over random queries. *)
let average_queries ~n f =
  let rec go i acc = if i >= n then acc /. float_of_int n else go (i + 1) (acc +. f i) in
  go 0 0.

(* Seconds recorded so far under a span name (0 before its first use). *)
let span_seconds name =
  match Obs.find_span_histogram name with
  | None -> 0.
  | Some h -> float_of_int (Obs.Histogram.snapshot h).Obs.Histogram.sn_sum /. 1e9

(* One [Cloud.search] with the split Fig. 5 reports, read from its span
   histograms: result generation is [cloud.collect] (index traversal and
   unmasking), VO generation the rest of [cloud.search] (multiset hash,
   prime representative and witness). [None] when the claim cache
   answered some token: that time is a memo lookup, not Algorithm 4. *)
let timed_search cloud tokens =
  let hits () = Obs.counter_value "slicer_cloud_claim_cache_hits_total" in
  let hits0 = hits () in
  let collect0 = span_seconds "cloud.collect" and search0 = span_seconds "cloud.search" in
  let claims = Cloud.search cloud tokens in
  let result_s = span_seconds "cloud.collect" -. collect0 in
  let vo_s = span_seconds "cloud.search" -. search0 -. result_s in
  if hits () > hits0 then None else Some (claims, result_s, vo_s)
