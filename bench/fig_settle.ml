(* Settlement gas vs batch size (the fairness story of batched
   settlement): the eager path pays an Algorithm-5 re-verification
   inside every submitResult (each claim's hinted prime is one
   Baillie–PSW check, ~11k gas, plus its calldata, multiset hash and
   modexp), while the optimistic path posts one commitBatch Merkle root
   per batch and settles the whole batch with one finalize (one payout
   transfer, no member slot touched) after the dispute window — so the
   recurring settlement gas per query should fall roughly linearly
   with the batch size.

   Queries are width-8 range searches (multi-token, so the eager
   verification costs several h_prime evaluations per settlement — the
   realistic regime the paper's Table II prices). The escrow
   (requestSearch) gas is identical across modes and reported
   separately; the one-time deposit is excluded. The eager and batch-64
   points also print their gas per query by label, escrow included,
   from the slicer_chain_gas_<label>_total counters.

   The guard at the end is the smoke alias's tripwire: batch-64
   settlement gas per query must be at most 1/8 of the eager path's,
   or batching has stopped amortizing. *)

open Bench_common

let amortization_guard = 8

let settle_methods = [ "submitResult"; "submitResultBatched"; "commitBatch"; "finalize" ]

(* Sum gas over [blocks_above height0], split settlement vs escrow by
   method name. Reverted transactions still burn their gas. *)
let gas_above ledger ~height =
  List.fold_left
    (fun acc (b : Block.t) ->
      List.fold_left2
        (fun (settle, escrow, commits, finalizes) txn (r : Vm.receipt) ->
          match txn.Vm.tx_payload with
          | Vm.Call { method_ = "requestSearch"; _ } ->
            (settle, escrow + r.Vm.r_gas_used, commits, finalizes)
          | Vm.Call { method_; _ } when List.mem method_ settle_methods ->
            ( settle + r.Vm.r_gas_used,
              escrow,
              (commits + if method_ = "commitBatch" then 1 else 0),
              (finalizes + if method_ = "finalize" then 1 else 0) )
          | _ -> (settle, escrow, commits, finalizes))
        acc b.Block.txns b.Block.receipts)
    (0, 0, 0, 0)
    (Ledger.blocks_above ledger ~height)

(* Gas per query by label between two [Slicer_contract.gas_by_label]
   readings, largest first. *)
let per_query_by_label ~queries before after =
  List.filter_map
    (fun (label, total) ->
      let gas = total - Option.value ~default:0 (List.assoc_opt label before) in
      if gas > 0 then Some (label, gas / queries) else None)
    after
  |> List.sort (fun (_, a) (_, b) -> compare b a)

(* The window each batched point's contract is deployed with. *)
let dispute_blocks = 1

(* One measured point: a fresh service seeded through a Build, [queries]
   searches driven through it, batches closed out, settlement gas read
   back off the chain. [batch = 1] is the legacy eager path (no settle
   config at all), not a size-1 batch. *)
let point ~records batch =
  let queries = if batch <= 1 then 16 else batch in
  let seed = Printf.sprintf "settle-bench-%d" batch in
  let rng = Drbg.create ~seed:(seed ^ "-driver") in
  let db = Gen.uniform_records ~rng ~width:8 records in
  let settle =
    if batch <= 1 then None
    else
      Some
        { Settle_batch.sb_size = batch; sb_window_ms = 1e12; sb_deposit = 100_000;
          sb_dispute_blocks = dispute_blocks }
  in
  let svc = Net.Service.create ?settle () in
  (match Net.Service.handle svc (Net.Client.seeded_build ~width:8 ~payment:1000 ~seed db) with
   | Net.Wire.Accepted _ -> ()
   | _ -> failwith "fig_settle: the seeding Build was refused");
  let station = Option.get (Net.Service.station svc) in
  let ledger = Station.ledger station in
  let user, user_addr =
    match Net.Service.handle svc (Net.Wire.Hello { client = seed; proto = Net.Wire.proto_version }) with
    | Net.Wire.Welcome p ->
      ( User.create ~keys:p.Net.Wire.pv_user_keys ~width:p.Net.Wire.pv_width p.Net.Wire.pv_trapdoor,
        p.Net.Wire.pv_user_addr )
    | _ -> failwith "fig_settle: hello refused"
  in
  let height0 = Ledger.height ledger in
  let labels0 = Slicer_contract.gas_by_label () in
  let (), elapsed_s =
    time (fun () ->
        for i = 1 to queries do
          let query = Slicer_types.query (32 + (i mod 64)) Slicer_types.Lt in
          let tokens = User.gen_tokens ~rng user query in
          match
            Net.Service.handle svc
              (Net.Wire.Search
                 { client = seed; request_id = Printf.sprintf "%s#%d" seed i;
                   batched = false; tokens; trace = None })
          with
          | Net.Wire.Found _ -> ()
          | _ -> failwith "fig_settle: search refused"
        done)
  in
  (* Close out: commit any open tail, seal filler blocks through the
     contract's dispute window ([dispute_blocks], deployed from the
     settle config), finalize everything due. The filler transfers are
     excluded from both gas columns by classification. *)
  for _ = 1 to dispute_blocks + 1 do
    Net.Service.settle_flush svc;
    ignore
      (Ledger.submit_and_seal ledger
         (Vm.make_transfer (Ledger.state ledger) ~sender:user_addr
            ~to_:(Station.cloud_addr station) ~value:1))
  done;
  Net.Service.settle_flush svc;
  let settle_gas, escrow_gas, commits, finalizes = gas_above ledger ~height:height0 in
  let per_query = float_of_int settle_gas /. float_of_int queries in
  let by_label = per_query_by_label ~queries labels0 (Slicer_contract.gas_by_label ()) in
  row
    (if batch <= 1 then "eager" else string_of_int batch)
    [ string_of_int queries;
      Printf.sprintf "%.0f" per_query;
      string_of_int settle_gas;
      Printf.sprintf "%.0f" (float_of_int escrow_gas /. float_of_int queries);
      string_of_int commits;
      string_of_int finalizes;
      seconds elapsed_s ];
  json_row ~figure:"settle" ~series:"gas"
    [ ("batch", J_int batch);
      ("queries", J_int queries);
      ("settle_gas", J_int settle_gas);
      ("settle_gas_per_query", J_float per_query);
      ("escrow_gas_per_query", J_float (float_of_int escrow_gas /. float_of_int queries));
      ("commits", J_int commits);
      ("finalizes", J_int finalizes);
      ("elapsed_s", J_float elapsed_s) ];
  (per_query, by_label)

let run scale =
  header "Settlement gas per query vs batch size (optimistic batching)";
  Printf.printf
    "(eager = per-query submitResult with on-chain Algorithm 5; batched = one\n\
    \ commitBatch + one finalize per batch; escrow column is the identical\n\
    \ requestSearch cost, for context)\n";
  let records = if scale.label = smoke_scale.label then 32 else 64 in
  row_header [ "batch"; "queries"; "settle/query"; "settle total"; "escrow/query";
               "commits"; "finalizes"; "wall" ];
  let eager, eager_labels = point ~records 1 in
  let points = List.map (fun b -> (b, point ~records b)) [ 8; 64; 256 ] in
  let batched = List.map (fun (b, (per_query, _)) -> (b, per_query)) points in
  Printf.printf "\ngas per query by label (escrow and settlement):\n";
  let print_labels name labels =
    Printf.printf "%12s  %s\n" name
      (String.concat ", " (List.map (fun (l, g) -> Printf.sprintf "%s %d" l g) labels))
  in
  print_labels "eager" eager_labels;
  Option.iter (fun (_, labels) -> print_labels "64" labels) (List.assoc_opt 64 points);
  (match List.assoc_opt 64 batched with
   | Some g64 when g64 > eager /. float_of_int amortization_guard ->
     failwith
       (Printf.sprintf
          "settle amortization guard: batch-64 settlement costs %.0f gas/query, more than \
           1/%d of the eager path's %.0f — batching has stopped amortizing"
          g64 amortization_guard eager)
   | Some g64 ->
     Printf.printf "\namortization guard ok: batch-64 %.0f gas/query vs eager %.0f (>= %dx)\n"
       g64 eager amortization_guard
   | None -> failwith "settle bench: batch-64 point missing")
