(* Benchmark harness entry point.

   With no arguments, regenerates every table and figure of the paper's
   evaluation section at the default scale, then runs the Bechamel
   micro-suite. Individual targets:

     dune exec bench/main.exe -- fig3 | fig4 | fig5 | fig6 | fig7
     dune exec bench/main.exe -- table1 | table2 | ablation | micro | tail
     dune exec bench/main.exe -- --scale smoke|default|full
     dune exec bench/main.exe -- --full            (alias: --scale full)
     dune exec bench/main.exe -- --domains 4       (ADS work on 4 domains)
     dune exec bench/main.exe -- --json out.json   (machine-readable rows)

   fig3/fig4 share one harness (a build produces both time and storage
   series), as do fig5/fig6 (a search produces both time and overhead). *)

let usage () =
  print_endline
    "usage: main.exe [--scale smoke|default|full] [--full] [--domains N] [--json FILE]\n\
    \       [fig3|fig4|fig5|fig6|fig7|table1|table2|ablation|micro|tail|recover|witness|settle|all]";
  exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let scale = ref Bench_common.default_scale in
  let json_path = ref None in
  let targets = ref [] in
  let rec parse = function
    | [] -> ()
    | "--full" :: rest ->
      scale := Bench_common.full_scale;
      parse rest
    | "--scale" :: label :: rest ->
      (match Bench_common.scale_of_label label with
       | Some s -> scale := s
       | None -> Printf.printf "unknown scale %S (smoke|default|full)\n" label; usage ());
      parse rest
    | "--domains" :: n :: rest ->
      (match int_of_string_opt n with
       | Some d when d >= 1 -> Parallel.set_domains d
       | _ -> Printf.printf "--domains expects a positive integer, got %S\n" n; usage ());
      parse rest
    | "--json" :: path :: rest ->
      (* Fail on an unwritable path now, not after an hour of measuring
         — without truncating it: earlier runs' rows merge at the end. *)
      Obs.Export.ensure_parent path;
      (match open_out_gen [ Open_wronly; Open_creat ] 0o644 path with
       | oc -> close_out oc
       | exception Sys_error msg -> Printf.printf "--json: %s\n" msg; usage ());
      json_path := Some path;
      parse rest
    | ("--scale" | "--domains" | "--json") :: [] ->
      usage ()
    | t :: rest ->
      targets := t :: !targets;
      parse rest
  in
  parse args;
  let scale = !scale in
  let targets = match List.rev !targets with [] -> [ "all" ] | ts -> ts in
  Printf.printf "Slicer benchmark harness - scale: %s, domains: %d\n"
    scale.Bench_common.label (Parallel.domains ());
  let run_target = function
    | "fig3" | "fig4" -> Fig_build.run scale
    | "fig5" | "fig6" -> Fig_search.run scale
    | "fig7" -> Fig_insert.run scale
    | "table1" -> Tables.table1 ()
    | "table2" -> Tables.table2 ()
    | "ablation" -> Ablation.run ()
    | "micro" -> Bechamel_suite.run ()
    | "tail" -> Tail.run ()
    | "recover" -> Fig_recover.run scale
    | "witness" -> Fig_witness.run scale
    | "settle" -> Fig_settle.run scale
    | "all" ->
      Tables.table1 ();
      Tables.table2 ();
      Fig_build.run scale;
      Fig_search.run scale;
      Fig_insert.run scale;
      Tail.run ();
      Fig_recover.run scale;
      Fig_witness.run scale;
      Fig_settle.run scale;
      Ablation.run ();
      Bechamel_suite.run ()
    | other ->
      Printf.printf "unknown target %S\n" other;
      usage ()
  in
  List.iter run_target targets;
  match !json_path with None -> () | Some path -> Bench_common.write_json path
