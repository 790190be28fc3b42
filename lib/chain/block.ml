type header = {
  parent : string;
  number : int;
  timestamp : int;
  tx_root : string;
  gas_used : int;
  gas_limit : int;
  sealer : Vm.address;
  seal : string;
}

type t = { header : header; txns : Vm.txn list; receipts : Vm.receipt list }

let tx_root txns = Merkle.root (Merkle.build (List.map Vm.txn_bytes txns))

let receipts_gas receipts = List.fold_left (fun acc (r : Vm.receipt) -> acc + r.Vm.r_gas_used) 0 receipts

let header_preimage h =
  Bytesutil.concat
    [ h.parent; string_of_int h.number; string_of_int h.timestamp; h.tx_root;
      string_of_int h.gas_used; string_of_int h.gas_limit; h.sealer ]

let hash b = Sha256.digest (Bytesutil.concat [ header_preimage b.header; b.header.seal ])

let make ~parent ~number ~timestamp ~gas_limit ~sealer ~seal txns receipts =
  let unsealed =
    { parent; number; timestamp; tx_root = tx_root txns; gas_used = receipts_gas receipts;
      gas_limit; sealer; seal = "" }
  in
  { header = { unsealed with seal = seal (header_preimage unsealed) }; txns; receipts }

let prove_inclusion b i = Merkle.prove (Merkle.build (List.map Vm.txn_bytes b.txns)) i

let verify_inclusion b txn proof =
  Merkle.verify ~root:b.header.tx_root ~leaf:(Vm.txn_bytes txn) proof
