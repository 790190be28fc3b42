type address = string

let address_of_name name = String.sub (Sha256.digest ("addr:" ^ name)) 0 20

let pp_address fmt a = Format.fprintf fmt "0x%s…" (Bytesutil.to_hex (String.sub a 0 6))

type state = {
  balances : (address, int) Hashtbl.t;
  nonces : (address, int) Hashtbl.t;
  storage : (address, (string, string) Hashtbl.t) Hashtbl.t;
  deployed : (address, contract_def) Hashtbl.t;
  mutable journal : (unit -> unit) list option;
      (* [Some undos] while a transaction runs; mutations push undo
         thunks, replayed in order on revert. *)
  mutable events : string list; (* collected during the current txn *)
  mutable last_meter : Gasmeter.t option; (* the latest transaction's meter *)
}

and ctx = {
  state : state;
  meter : Gasmeter.t;
  sender : address;
  self : address;
  value : int;
  height : int;
}

and method_impl = ctx -> string list -> (string list, string) result

and contract_def = { cd_name : string; cd_code : string; cd_methods : (string * method_impl) list }

let create_state () =
  { balances = Hashtbl.create 16;
    nonces = Hashtbl.create 16;
    storage = Hashtbl.create 4;
    deployed = Hashtbl.create 4;
    journal = None;
    events = [];
    last_meter = None }

let record state undo =
  match state.journal with
  | Some undos -> state.journal <- Some (undo :: undos)
  | None -> ()

let balance state addr = Option.value ~default:0 (Hashtbl.find_opt state.balances addr)
let nonce state addr = Option.value ~default:0 (Hashtbl.find_opt state.nonces addr)
let contract_at state addr = Hashtbl.find_opt state.deployed addr

let set_balance state addr v =
  let old = balance state addr in
  record state (fun () -> Hashtbl.replace state.balances addr old);
  Hashtbl.replace state.balances addr v

let fund state addr amount =
  if amount < 0 then invalid_arg "Vm.fund: negative amount";
  set_balance state addr (balance state addr + amount)

let move_value state ~from ~to_ amount =
  if amount < 0 then Error "negative transfer"
  else if balance state from < amount then Error "insufficient balance"
  else begin
    set_balance state from (balance state from - amount);
    set_balance state to_ (balance state to_ + amount);
    Ok ()
  end

(* --- snapshot export / import ----------------------------------------- *)

(* The durable store can't serialize [contract_def] (it holds
   closures), so a snapshot carries the *materialized* world state —
   accounts, storage cells — and the restorer re-installs each
   contract's definition from code. These bypass the journal and gas:
   they are only legal outside any transaction. *)

let accounts state =
  let addrs = Hashtbl.create 16 in
  Hashtbl.iter (fun a _ -> Hashtbl.replace addrs a ()) state.balances;
  Hashtbl.iter (fun a _ -> Hashtbl.replace addrs a ()) state.nonces;
  Hashtbl.fold (fun a () acc -> (a, balance state a, nonce state a) :: acc) addrs []
  |> List.sort compare

let restore_account state addr ~balance ~nonce =
  if state.journal <> None then invalid_arg "Vm.restore_account: inside a transaction";
  Hashtbl.replace state.balances addr balance;
  Hashtbl.replace state.nonces addr nonce

let install_contract state addr def =
  if state.journal <> None then invalid_arg "Vm.install_contract: inside a transaction";
  Hashtbl.replace state.deployed addr def

let storage_entries state addr =
  match Hashtbl.find_opt state.storage addr with
  | None -> []
  | Some tbl -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let restore_storage state addr entries =
  if state.journal <> None then invalid_arg "Vm.restore_storage: inside a transaction";
  let tbl =
    match Hashtbl.find_opt state.storage addr with
    | Some tbl -> tbl
    | None ->
      let tbl = Hashtbl.create 16 in
      Hashtbl.replace state.storage addr tbl;
      tbl
  in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) entries

(* --- contract-side operations ---------------------------------------- *)

let storage_of state addr =
  match Hashtbl.find_opt state.storage addr with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 16 in
    Hashtbl.replace state.storage addr tbl;
    tbl

(* Storage is priced per 32-byte word, as an EVM slot holds one: a
   value of [len] bytes is [Gas.words len] slots. A read pays one cold
   SLOAD per word (one for a missing value). A write pays a fresh
   SSTORE for each word beyond the old value's length and a reset for
   each word the old value already occupied. *)
let sload ctx key =
  let v = Hashtbl.find_opt (storage_of ctx.state ctx.self) key in
  let len = match v with Some v -> String.length v | None -> 0 in
  Gasmeter.charge ctx.meter ~label:"sload" (Gas.sload * Gas.words len);
  v

let sstore ctx key value =
  let tbl = storage_of ctx.state ctx.self in
  let old = Hashtbl.find_opt tbl key in
  let fresh = Gas.words (String.length value) in
  let set_before = match old with None -> 0 | Some v -> Gas.words (String.length v) in
  let reset = Stdlib.min fresh set_before in
  Gasmeter.charge ctx.meter ~label:"sstore"
    ((reset * Gas.sstore_reset) + ((fresh - reset) * Gas.sstore_set));
  record ctx.state (fun () ->
      match old with None -> Hashtbl.remove tbl key | Some v -> Hashtbl.replace tbl key v);
  Hashtbl.replace tbl key value

let emit ctx event =
  Gasmeter.charge ctx.meter ~label:"log" (Gas.log_base + (Gas.log_per_byte * String.length event));
  let old = ctx.state.events in
  record ctx.state (fun () -> ctx.state.events <- old);
  ctx.state.events <- event :: ctx.state.events

let send ctx ~to_ amount =
  Gasmeter.charge ctx.meter ~label:"call" Gas.call_value_transfer;
  move_value ctx.state ~from:ctx.self ~to_ amount

let require _ctx cond reason = if cond then Ok () else Error reason

(* --- transactions ------------------------------------------------------ *)

type payload =
  | Transfer
  | Deploy of { def : contract_def; init_args : string list }
  | Call of { method_ : string; args : string list }

type txn = { tx_sender : address; tx_to : address; tx_value : int; tx_nonce : int; tx_payload : payload }

let deploy_address ~sender ~nonce = String.sub (Sha256.digest (Bytesutil.concat [ "create"; sender; string_of_int nonce ])) 0 20

let make_transfer state ~sender ~to_ ~value =
  { tx_sender = sender; tx_to = to_; tx_value = value; tx_nonce = nonce state sender; tx_payload = Transfer }

let make_deploy state ~sender ?(value = 0) def init_args =
  let n = nonce state sender in
  { tx_sender = sender;
    tx_to = deploy_address ~sender ~nonce:n;
    tx_value = value;
    tx_nonce = n;
    tx_payload = Deploy { def; init_args } }

let make_call state ~sender ~to_ ?(value = 0) method_ args =
  { tx_sender = sender; tx_to = to_; tx_value = value; tx_nonce = nonce state sender; tx_payload = Call { method_; args } }

let payload_bytes = function
  | Transfer -> "" (* a plain value transfer carries no calldata *)
  | Deploy { def; init_args } -> Bytesutil.concat ("deploy" :: def.cd_name :: def.cd_code :: init_args)
  | Call { method_; args } -> Bytesutil.concat ("call" :: method_ :: args)

let txn_bytes t =
  Bytesutil.concat
    [ t.tx_sender; t.tx_to; string_of_int t.tx_value; string_of_int t.tx_nonce; payload_bytes t.tx_payload ]

let txn_hash t = Sha256.digest (txn_bytes t)

type receipt = {
  r_txn_hash : string;
  r_gas_used : int;
  r_events : string list;
  r_output : (string list, string) result;
}

(* Calldata gas is charged on the serialized payload — the closest
   analogue of ABI-encoded calldata. *)
let intrinsic_gas t =
  Gas.tx_base
  + Gas.calldata (payload_bytes t.tx_payload)
  + match t.tx_payload with
    | Deploy { def; _ } -> Gas.tx_create + (Gas.code_deposit_per_byte * String.length def.cd_code)
    | Transfer | Call _ -> 0

let run_payload state meter ~height t =
  match t.tx_payload with
  | Transfer -> Ok []
  | Deploy { def; init_args } ->
    if Hashtbl.mem state.deployed t.tx_to then Error "address already occupied"
    else begin
      Hashtbl.replace state.deployed t.tx_to def;
      record state (fun () -> Hashtbl.remove state.deployed t.tx_to);
      (match List.assoc_opt "constructor" def.cd_methods with
       | None -> Ok []
       | Some ctor ->
         ctor { state; meter; sender = t.tx_sender; self = t.tx_to; value = t.tx_value; height }
           init_args)
    end
  | Call { method_; args } ->
    (match contract_at state t.tx_to with
     | None -> Error "no contract at address"
     | Some def ->
       (match List.assoc_opt method_ def.cd_methods with
        | None -> Error (Printf.sprintf "unknown method %s" method_)
        | Some impl ->
          impl { state; meter; sender = t.tx_sender; self = t.tx_to; value = t.tx_value; height }
            args))

let execute ?(height = 0) ?gas_limit state t =
  if state.journal <> None then invalid_arg "Vm.execute: reentrant execution";
  state.events <- [];
  let meter = Gasmeter.create ?limit:gas_limit () in
  state.last_meter <- Some meter;
  let finish output =
    { r_txn_hash = txn_hash t;
      r_gas_used = Gasmeter.used meter;
      r_events = List.rev state.events;
      r_output = output }
  in
  if t.tx_nonce <> nonce state t.tx_sender then finish (Error "bad nonce")
  else
    let intrinsic = intrinsic_gas t in
    if intrinsic > Gasmeter.limit meter then
      (* Refused before it touches anything, as a node refuses a
         transaction whose intrinsic gas is over the block's limit: no
         nonce bump, no gas, no state change. *)
      finish (Error "intrinsic gas exceeds the gas limit")
    else begin
      Hashtbl.replace state.nonces t.tx_sender (t.tx_nonce + 1);
      Gasmeter.charge meter ~label:"intrinsic" intrinsic;
      state.journal <- Some [];
      let output =
        match move_value state ~from:t.tx_sender ~to_:t.tx_to t.tx_value with
        | Error _ as e -> e |> Result.map (fun () -> [])
        | Ok () -> (
          try run_payload state meter ~height t with Gasmeter.Out_of_gas _ -> Error "out of gas" )
      in
      (match output with
       | Ok _ -> ()
       | Error _ ->
         (* Revert: replay undo thunks, newest first. *)
         (match state.journal with
          | Some undos -> List.iter (fun undo -> undo ()) undos
          | None -> ()));
      state.journal <- None;
      finish output
    end

let last_breakdown state =
  match state.last_meter with Some m -> Gasmeter.breakdown m | None -> []
