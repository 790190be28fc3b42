let block_size = 64

(* A keyed context pre-absorbs the ipad/opad key blocks once; each
   message then costs two context clones instead of re-deriving the pads
   and re-compressing the 64-byte key block twice. The two contexts are
   never mutated after [create], so a [keyed] value can be shared across
   domains — every use clones before updating. *)
type keyed = { inner : Sha256.ctx; outer : Sha256.ctx }

let create ~key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let block = Bytes.make block_size '\x36' in
  String.iteri
    (fun i c -> Bytes.unsafe_set block i (Char.unsafe_chr (Char.code c lxor 0x36)))
    key;
  let inner = Sha256.init () in
  Sha256.update inner (Bytes.to_string block);
  (* Flip ipad to opad in place: 0x36 lxor 0x5c = 0x6a. *)
  for i = 0 to block_size - 1 do
    Bytes.unsafe_set block i (Char.unsafe_chr (Char.code (Bytes.unsafe_get block i) lxor 0x6a))
  done;
  let outer = Sha256.init () in
  Sha256.update outer (Bytes.to_string block);
  { inner; outer }

let outer_ctx kd msg =
  let c = Sha256.copy kd.inner in
  Sha256.update c msg;
  let d = Sha256.finalize c in
  let o = Sha256.copy kd.outer in
  Sha256.update o d;
  o

let sha256_keyed kd msg = Sha256.finalize (outer_ctx kd msg)
let prf128_keyed kd msg = Sha256.finalize_trunc (outer_ctx kd msg) 16

(* One-shot paths are thin wrappers: a throwaway keyed context is still
   cheaper than the old concatenate-and-rehash formulation (no key
   padding copies, no ipad^msg / opad^digest string builds). *)
let sha256 ~key msg = sha256_keyed (create ~key) msg

let prf128 ~key msg = prf128_keyed (create ~key) msg
