(* Fig. 7 (time cost of Insert): preload the system, then insert batches
   of increasing size and report the index/ADS time split. Paper shape:
   both series grow proportionally with the inserted amount; the ADS
   share dominates as width grows (more fresh keywords, more primes). *)

let run (scale : Bench_common.scale) =
  Bench_common.header "Fig. 7 - time cost of Insert";
  Printf.printf "(paper: Fig 7a index insert time, Fig 7b ADS insert time; preload %d records)\n"
    scale.Bench_common.insert_preload;
  List.iter
    (fun width ->
      Bench_common.subheader (Printf.sprintf "%d-bit values" width);
      Bench_common.row_header [ "inserted"; "index time"; "ADS time"; "new primes" ];
      List.iter
        (fun batch ->
          (* Fresh preloaded system per point so batches do not compound. *)
          let sys = Bench_common.build_system_uncached ~width ~size:scale.Bench_common.insert_preload in
          let rng = sys.Bench_common.bs_rng in
          let records =
            List.init batch (fun i ->
                Slicer_types.record_of_value
                  (Printf.sprintf "ins-%d" i)
                  (Drbg.uniform_int rng (1 lsl width)))
          in
          let shipment = Owner.insert sys.Bench_common.bs_owner records in
          let t = Owner.last_timings sys.Bench_common.bs_owner in
          (* Ship to the cloud so the reported index bytes cover
             preload + batch — the storage row paired with the times. *)
          Bench_common.install sys.Bench_common.bs_cloud shipment;
          Bench_common.json_row ~figure:"fig7" ~series:"insert"
            [ ("records", Bench_common.J_int batch);
              ("bits", Bench_common.J_int width);
              ("index_seconds", Bench_common.J_float t.Owner.index_seconds);
              ("ads_seconds", Bench_common.J_float t.Owner.ads_seconds);
              ("index_bytes", Bench_common.J_int (Cloud.index_bytes sys.Bench_common.bs_cloud));
              ("index_entries", Bench_common.J_int (Cloud.index_entries sys.Bench_common.bs_cloud));
              ("new_primes", Bench_common.J_int (List.length shipment.Owner.sh_groups)) ];
          Bench_common.row (string_of_int batch)
            [ Bench_common.seconds t.Owner.index_seconds;
              Bench_common.seconds t.Owner.ads_seconds;
              string_of_int (List.length shipment.Owner.sh_groups) ])
        scale.Bench_common.insert_batches)
    scale.Bench_common.widths
