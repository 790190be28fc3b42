let log_src = Logs.Src.create "slicer.chain.settle" ~doc:"Batched optimistic settlement"

module Log = (val Logs.src_log log_src : Logs.LOG)

let c_commits =
  Obs.counter ~help:"batch commitments posted" "slicer_settle_batch_commits_total"

let c_finalized =
  Obs.counter ~help:"batches finalized after the dispute window" "slicer_settle_batch_finalized_total"

let c_disputes = Obs.counter ~help:"disputes opened" "slicer_settle_batch_disputes_total"

let c_slashes =
  Obs.counter ~help:"batches slashed from a proven-bad leaf" "slicer_settle_batch_slashed_total"

let h_size =
  Obs.histogram ~units:Obs.Histogram.Raw ~help:"receipts per committed batch"
    "slicer_settle_batch_size"

let h_commit_gas =
  Obs.histogram ~units:Obs.Histogram.Raw ~help:"gas per commitBatch transaction"
    "slicer_settle_batch_commit_gas"

let h_finalize_gas =
  Obs.histogram ~units:Obs.Histogram.Raw ~help:"gas per finalize transaction"
    "slicer_settle_batch_finalize_gas"

let g_pending = Obs.gauge ~help:"receipts awaiting commitment" "slicer_settle_batch_pending"

type config = {
  sb_size : int;        (* commit after this many receipts *)
  sb_window_ms : float; (* ... or once the open batch is this old *)
  sb_deposit : int;     (* slashable stake the cloud posts up front *)
  sb_dispute_blocks : int; (* contract-side window, for fresh deploys *)
}

let default_config =
  { sb_size = 64; sb_window_ms = 1_000.; sb_deposit = 10_000_000; sb_dispute_blocks = 4 }

type status =
  | Pending of { batch : string; index : int }
  | Committed of { batch : string; index : int; leaf : string; root : string;
                   proof : Merkle.proof }
  | Final of { batch : string }
  | Refunded of { batch : string }

type batch_state =
  | Open
  | Posted of { height : int; members : Slicer_contract.escrow list; ac : Bigint.t }
      (* committed at [height]; a dispute passes the members' escrow
         preimages (in leaf order) and the Ac in force at commit as
         calldata, since the contract keeps only their hashes. finalize
         needs neither. *)
  | Finalized
  | Slashed

type batch = {
  b_id : string;
  b_leaves : string list; (* encoded, oldest first — the Merkle leaf order *)
  mutable b_state : batch_state;
  b_tree : Merkle.t;
}

type t = {
  ledger : Ledger.t;
  contract : Vm.address;
  cloud : Vm.address;
  cfg : config;
  current_ac : unit -> Bigint.t;      (* the Ac whose hash is on chain *)
  mutable seq : int;                  (* number of the open batch *)
  mutable open_rev : (string * Slicer_contract.escrow) list; (* leaf bytes, newest first *)
  mutable opened_ns : int;            (* clock at the open batch's first leaf *)
  batches : (string, batch) Hashtbl.t;
  mutable order : string list;        (* committed batch ids, newest first *)
  by_request : (string, string * int) Hashtbl.t; (* request -> (batch, index) *)
}

let batch_name seq = Printf.sprintf "b%d" seq

let create ~config ~ledger ~contract ~cloud ~current_ac =
  { ledger; contract; cloud; cfg = config; current_ac; seq = 0; open_rev = []; opened_ns = 0;
    batches = Hashtbl.create 16; order = []; by_request = Hashtbl.create 256 }

let config t = t.cfg
let open_id t = batch_name t.seq
let open_count t = List.length t.open_rev

(* Idempotent: recovery re-enables batching over restored chain state
   in which the deposit already sits in the contract. *)
let ensure_deposit t =
  if Slicer_contract.stored_deposit t.ledger ~contract:t.contract ~who:t.cloud > 0 then None
  else
    Some
      (Slicer_contract.post_deposit t.ledger ~cloud:t.cloud ~contract:t.contract
         ~amount:t.cfg.sb_deposit)

let add t leaf ~escrow =
  let index = List.length t.open_rev in
  if index = 0 then t.opened_ns <- Obs.Clock.now_ns ();
  t.open_rev <- (Slicer_contract.encode_leaf leaf, escrow) :: t.open_rev;
  Obs.Gauge.add g_pending 1;
  Hashtbl.replace t.by_request leaf.Slicer_contract.rl_request (open_id t, index);
  (open_id t, index)

let should_flush t = open_count t >= t.cfg.sb_size

let window_expired t =
  t.open_rev <> []
  && float_of_int (Obs.Clock.now_ns () - t.opened_ns) /. 1e6 >= t.cfg.sb_window_ms

(* Commit the open batch: one Merkle root, one transaction. Determinism
   matters — recovery replays the same add/flush sequence from the WAL
   and must reproduce batch ids, leaf order and the commit height. *)
let flush t =
  match t.open_rev with
  | [] -> None
  | rev ->
    Obs.span "settle.commit" @@ fun () ->
    let id = open_id t in
    let pairs = List.rev rev in
    let leaves = List.map fst pairs in
    let tree = Merkle.build leaves in
    let members = List.map snd pairs in
    let ac = t.current_ac () in
    let receipt =
      Slicer_contract.commit_batch t.ledger ~cloud:t.cloud ~contract:t.contract ~batch_id:id
        ~root:(Merkle.root tree) ~members
    in
    (match receipt.Vm.r_output with
     | Ok _ ->
       let height = Ledger.height t.ledger in
       Hashtbl.replace t.batches id
         { b_id = id; b_leaves = leaves; b_state = Posted { height; members; ac }; b_tree = tree };
       t.order <- id :: t.order;
       t.seq <- t.seq + 1;
       t.open_rev <- [];
       Obs.Counter.incr c_commits;
       Obs.Histogram.record h_size (List.length leaves);
       Obs.Histogram.record h_commit_gas receipt.Vm.r_gas_used;
       Obs.Gauge.add g_pending (-List.length leaves);
       Log.debug (fun m ->
           m "committed %s: %d receipts, gas %d" id (List.length leaves) receipt.Vm.r_gas_used)
     | Error e ->
       (* A reverted commit leaves the batch open; the next flush (or
          tick) retries. Seen only under contract misconfiguration. *)
       Log.err (fun m -> m "commitBatch %s reverted: %s" id e));
    Some (id, receipt)

let dispute_window t =
  Option.value ~default:1 (Slicer_contract.stored_dispute_window t.ledger ~contract:t.contract)

(* Finalize every committed batch whose dispute window has passed,
   oldest first (deterministic order for WAL replay). *)
let finalize_due t =
  let w = dispute_window t in
  let height = Ledger.height t.ledger in
  let due =
    List.rev t.order
    |> List.filter_map (fun id ->
           match Hashtbl.find_opt t.batches id with
           | Some ({ b_state = Posted { height = h; _ }; _ } as b) when height >= h + w -> Some b
           | _ -> None)
  in
  List.map
    (fun b ->
      Obs.span "settle.finalize" @@ fun () ->
      let receipt =
        Slicer_contract.finalize_batch t.ledger ~cloud:t.cloud ~contract:t.contract
          ~batch_id:b.b_id
      in
      (match receipt.Vm.r_output with
       | Ok _ ->
         b.b_state <- Finalized;
         Obs.Counter.incr c_finalized;
         Obs.Histogram.record h_finalize_gas receipt.Vm.r_gas_used
       | Error e -> Log.err (fun m -> m "finalize %s reverted: %s" b.b_id e));
      (b.b_id, receipt))
    due

(* Open a dispute on the committed leaf of [request]. The claims blob
   is the one the cloud served (its hash is committed in the leaf);
   [Ok (slashed, receipt)] — a rejected dispute is not an error, it
   comes back as [(false, receipt)] with the revert reason inside. *)
let dispute t ~disputer ~request ~claims_blob ~batch_witness =
  match Hashtbl.find_opt t.by_request request with
  | None -> Error "unknown request"
  | Some (batch_id, index) ->
    (match Hashtbl.find_opt t.batches batch_id with
     | None -> Error "receipt not committed yet"
     | Some b ->
       (match b.b_state with
        | Open -> Error "receipt not committed yet"
        | Finalized -> Error "batch already finalized"
        | Slashed -> Error "batch already slashed"
        | Posted { members; ac; _ } ->
          Obs.span "settle.dispute" @@ fun () ->
          Obs.Counter.incr c_disputes;
          let leaf = List.nth b.b_leaves index in
          let proof = Merkle.prove b.b_tree index in
          let receipt =
            Slicer_contract.dispute_leaf t.ledger ~disputer ~contract:t.contract ~batch_id
              ~index ~leaf ~proof ~claims_blob ~batch_witness ~members ~ac
          in
          let slashed = receipt.Vm.r_output = Ok [ "slashed" ] in
          if slashed then begin
            b.b_state <- Slashed;
            Obs.Counter.incr c_slashes;
            Log.warn (fun m -> m "batch %s slashed by dispute on %s" batch_id request)
          end;
          Ok (slashed, receipt)))

let status t ~request =
  match Hashtbl.find_opt t.by_request request with
  | None -> None
  | Some (batch_id, index) ->
    (match Hashtbl.find_opt t.batches batch_id with
     | None -> Some (Pending { batch = batch_id; index })
     | Some b ->
       (match b.b_state with
        | Open -> Some (Pending { batch = batch_id; index })
        | Posted _ ->
          Some
            (Committed
               { batch = batch_id; index; leaf = List.nth b.b_leaves index;
                 root = Merkle.root b.b_tree; proof = Merkle.prove b.b_tree index })
        | Finalized -> Some (Final { batch = batch_id })
        | Slashed -> Some (Refunded { batch = batch_id })))

(* --- snapshot export / restore ----------------------------------------- *)

(* The manager's state rides in the service snapshot (WAL events since
   the snapshot replay deterministically on top). Receipts and the
   wall clock are not persisted: a recovered open batch restarts its
   window from the restore instant. Each open leaf carries its escrow
   preimage, and a posted batch its members' preimages and the Ac in
   force at commit: the contract keeps only their commitments. *)
let magic = "slicer-settle-batch-v2"

(* A batch's state as [tag; members], [members] empty unless posted. *)
let encode_state = function
  | Open -> [ "o"; "" ]
  | Posted { height; members; ac } ->
    [ "p" ^ string_of_int height;
      Bytesutil.concat [ Bigint.to_bytes_be ac; Slicer_contract.encode_escrows members ] ]
  | Finalized -> [ "f"; "" ]
  | Slashed -> [ "s"; "" ]

let decode_state tag members_blob =
  match (tag, members_blob) with
  | "o", "" -> Some Open
  | "f", "" -> Some Finalized
  | "s", "" -> Some Slashed
  | tag, blob when String.length tag > 1 && tag.[0] = 'p' -> (
    match
      ( int_of_string_opt (String.sub tag 1 (String.length tag - 1)),
        Bytesutil.split blob )
    with
    | Some height, Some [ ac; escrows ] ->
      Option.map
        (fun members -> Posted { height; members; ac = Bigint.of_bytes_be ac })
        (Slicer_contract.decode_escrows escrows)
    | _ -> None)
  | _ -> None

let export t =
  let batch b =
    Bytesutil.concat ((b.b_id :: encode_state b.b_state) @ [ Bytesutil.concat b.b_leaves ])
  in
  let batches = List.rev_map (fun id -> batch (Hashtbl.find t.batches id)) t.order in
  let open_leaf (bytes, escrow) = Bytesutil.concat [ bytes; Slicer_contract.encode_escrows [ escrow ] ] in
  Bytesutil.concat
    (magic
     :: string_of_int t.seq
     :: Bytesutil.concat (List.rev_map open_leaf t.open_rev)
     :: batches)

let restore ~config ~ledger ~contract ~cloud ~current_ac bytes =
  match Bytesutil.split bytes with
  | Some (m :: seq_s :: open_blob :: batch_blobs) when m = magic -> (
    match (int_of_string_opt seq_s, Bytesutil.split open_blob) with
    | Some seq, Some open_leaves -> (
      let t = create ~config ~ledger ~contract ~cloud ~current_ac in
      t.seq <- seq;
      let decode_batch blob =
        match Bytesutil.split blob with
        | Some [ id; tag; members_blob; leaves_blob ] -> (
          match (decode_state tag members_blob, Bytesutil.split leaves_blob) with
          | Some state, Some leaves ->
            Some { b_id = id; b_state = state; b_leaves = leaves; b_tree = Merkle.build leaves }
          | _ -> None)
        | Some _ | None -> None
      in
      let rec go = function
        | [] -> true
        | blob :: rest -> (
          match decode_batch blob with
          | Some b ->
            Hashtbl.replace t.batches b.b_id b;
            t.order <- b.b_id :: t.order;
            List.iteri
              (fun i leaf ->
                match Slicer_contract.decode_leaf leaf with
                | Some l -> Hashtbl.replace t.by_request l.Slicer_contract.rl_request (b.b_id, i)
                | None -> ())
              b.b_leaves;
            go rest
          | None -> false)
      in
      (* order: oldest batch first in the export. *)
      if not (go batch_blobs) then None
      else begin
        let decoded_open =
          List.filter_map
            (fun blob ->
              match Bytesutil.split blob with
              | Some [ bytes; escrow ] -> (
                match (Slicer_contract.decode_leaf bytes, Slicer_contract.decode_escrows escrow) with
                | Some l, Some [ e ] -> Some (bytes, l, e)
                | _ -> None)
              | Some _ | None -> None)
            open_leaves
        in
        if List.length decoded_open <> List.length open_leaves then None
        else begin
          List.iteri
            (fun i (_, l, _) ->
              Hashtbl.replace t.by_request l.Slicer_contract.rl_request (open_id t, i))
            decoded_open;
          t.open_rev <- List.rev_map (fun (bytes, _, e) -> (bytes, e)) decoded_open;
          if t.open_rev <> [] then t.opened_ns <- Obs.Clock.now_ns ();
          Obs.Gauge.add g_pending (List.length decoded_open);
          Some t
        end
      end)
    | _ -> None)
  | Some _ | None -> None
