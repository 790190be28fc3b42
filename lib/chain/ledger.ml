type validator = {
  v_name : string;
  v_addr : Vm.address;
  v_secret : string;
  v_prf : Hmac.keyed; (* sealing PRF context, keyed once per validator *)
}

type t = {
  vm_state : Vm.state;
  validators : validator array;
  mutable chain : Block.t list; (* newest first; last element is genesis *)
  mutable mempool : Vm.txn list; (* newest first *)
  receipts : (string, Vm.receipt) Hashtbl.t;
}

let genesis_parent = Sha256.digest "slicer-genesis"
let gas_limit = 30_000_000

let make_validator name =
  let secret = Sha256.digest ("validator-secret:" ^ name) in
  { v_name = name;
    v_addr = Vm.address_of_name name;
    v_secret = secret;
    v_prf = Hmac.create ~key:secret }

let seal_with v preimage = Hmac.sha256_keyed v.v_prf preimage

let create ~validators =
  if validators = [] then invalid_arg "Ledger.create: need at least one validator";
  let validators = Array.of_list (List.map make_validator validators) in
  let genesis =
    Block.make ~parent:genesis_parent ~number:0 ~timestamp:0 ~gas_limit
      ~sealer:validators.(0).v_addr ~seal:(seal_with validators.(0)) [] []
  in
  { vm_state = Vm.create_state ();
    validators;
    chain = [ genesis ];
    mempool = [];
    receipts = Hashtbl.create 64 }

let state t = t.vm_state

let validator_names t =
  Array.to_list (Array.map (fun v -> v.v_name) t.validators)

let submit t txn = t.mempool <- txn :: t.mempool

let head t = List.hd t.chain
let height t = (head t).Block.header.Block.number
let blocks t = List.rev t.chain

let blocks_above t ~height =
  (* Walk the newest-first spine only until it drops to [height]:
     O(new blocks), not O(chain length). *)
  let rec take acc = function
    | b :: rest when b.Block.header.Block.number > height -> take (b :: acc) rest
    | _ -> acc
  in
  take [] t.chain

let sealer_for t number = t.validators.(number mod Array.length t.validators)

(* Each transaction may use only what the block has left, so the
   receipts never sum past the block's gas limit. *)
let seal_block t =
  let txns = List.rev t.mempool in
  t.mempool <- [];
  let number = height t + 1 in
  let used = ref 0 in
  let receipts =
    List.map
      (fun txn ->
        let r = Vm.execute ~height:number ~gas_limit:(gas_limit - !used) t.vm_state txn in
        used := !used + r.Vm.r_gas_used;
        r)
      txns
  in
  List.iter (fun (r : Vm.receipt) -> Hashtbl.replace t.receipts r.Vm.r_txn_hash r) receipts;
  let v = sealer_for t number in
  let block =
    Block.make ~parent:(Block.hash (head t)) ~number ~timestamp:number ~gas_limit
      ~sealer:v.v_addr ~seal:(seal_with v) txns receipts
  in
  t.chain <- block :: t.chain;
  block

let submit_and_seal t txn =
  submit t txn;
  let block = seal_block t in
  match block.Block.receipts with
  | [ r ] -> r
  | rs -> List.nth rs (List.length rs - 1)

let receipt_of t hash = Hashtbl.find_opt t.receipts hash

let validate_chain t chain =
  let rec go = function
    | [] -> Error "empty chain"
    | [ genesis ] ->
      if genesis.Block.header.Block.number <> 0 then Error "genesis number"
      else if not (String.equal genesis.Block.header.Block.parent genesis_parent) then Error "genesis parent"
      else Ok ()
    | block :: (parent :: _ as rest) ->
      let h = block.Block.header in
      if h.Block.number <> parent.Block.header.Block.number + 1 then Error "non-consecutive number"
      else if h.Block.timestamp <= parent.Block.header.Block.timestamp then Error "timestamp not increasing"
      else if not (String.equal h.Block.parent (Block.hash parent)) then Error "broken parent link"
      else if not (String.equal h.Block.tx_root (Block.tx_root block.Block.txns)) then Error "tx root mismatch"
      else if h.Block.gas_used <> Block.receipts_gas block.Block.receipts then Error "gas used mismatch"
      else if h.Block.gas_used > h.Block.gas_limit then Error "gas used over the limit"
      else begin
        let v = sealer_for t h.Block.number in
        if not (String.equal h.Block.sealer v.v_addr) then Error "wrong sealer"
        else begin
          let expected = seal_with v (Block.header_preimage { h with Block.seal = "" }) in
          if not (Bytesutil.const_equal expected h.Block.seal) then Error "bad seal" else go rest
        end
      end
  in
  go chain

let validate t = validate_chain t t.chain

let validate_forged t ~block_index forge =
  match List.nth_opt (blocks t) block_index with
  | None -> Error "no such block"
  | Some block ->
    validate_chain t (List.map (fun b -> if b == block then forge b else b) t.chain)

let tamper_check_demo t ~block_index =
  match List.nth_opt (blocks t) block_index with
  | None | Some { Block.txns = []; _ } -> false
  | Some _ ->
    (* Forge a copy of the block with one transaction's value bumped:
       the original header's tx_root no longer matches the body. *)
    let bump block =
      match block.Block.txns with
      | first :: rest ->
        let bumped =
          Vm.make_transfer t.vm_state ~sender:first.Vm.tx_sender ~to_:first.Vm.tx_to
            ~value:(first.Vm.tx_value + 1)
        in
        { block with Block.txns = bumped :: rest }
      | [] -> block
    in
    Result.is_error (validate_forged t ~block_index bump)
