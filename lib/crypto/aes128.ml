(* FIPS 197 AES-128. The S-box and the round tables are derived at
   module initialisation from the field generator, which avoids
   transcription errors in 256-entry literals; the FIPS-197 known-answer
   tests pin the result. *)

(* --- GF(2^8) arithmetic, modulus x^8+x^4+x^3+x+1 -------------------- *)

let gf_mul a b =
  let rec go a b acc =
    if b = 0 then acc
    else begin
      let acc = if b land 1 = 1 then acc lxor a else acc in
      let a = a lsl 1 in
      let a = if a land 0x100 <> 0 then a lxor 0x11b else a in
      go a (b lsr 1) acc
    end
  in
  go a b 0

(* Multiplicative inverse via log tables on generator 3. *)
let log_table = Array.make 256 0
let exp_table = Array.make 256 0

let () =
  let x = ref 1 in
  for i = 0 to 254 do
    exp_table.(i) <- !x;
    log_table.(!x) <- i;
    x := gf_mul !x 3
  done;
  exp_table.(255) <- 1

let gf_inv a = if a = 0 then 0 else exp_table.(255 - log_table.(a))

let sbox = Array.make 256 0
let inv_sbox = Array.make 256 0

let () =
  let rotl8 x n = ((x lsl n) lor (x lsr (8 - n))) land 0xff in
  for i = 0 to 255 do
    let q = gf_inv i in
    let s = q lxor rotl8 q 1 lxor rotl8 q 2 lxor rotl8 q 3 lxor rotl8 q 4 lxor 0x63 in
    sbox.(i) <- s;
    inv_sbox.(s) <- i
  done

(* --- round tables ---------------------------------------------------- *)

(* A state column is one big-endian 32-bit word (row 0 in the top byte).
   [te0.(x)] is SubBytes then MixColumns of a column holding only byte
   [x] in row 0, and [te1]..[te3] are the same column rotated for rows
   1..3, so one encryption round is 16 lookups and XORs; [td0]..[td3]
   do the same for InvSubBytes and InvMixColumns. *)
let[@inline] column a b c d = (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d
let ror8 w = (w lsr 8) lor ((w land 0xff) lsl 24)

(* Word [i] of a 16-byte string, masked to 32 bits because
   [String.get_int32_be] sign-extends; and its store. *)
let[@inline] word s i = Int32.to_int (String.get_int32_be s (4 * i)) land 0xffffffff
let[@inline] put b i w = Bytes.set_int32_be b (4 * i) (Int32.of_int w)

let te0 = Array.init 256 (fun x -> let s = sbox.(x) in column (gf_mul s 2) s s (gf_mul s 3))
let te1 = Array.map ror8 te0
let te2 = Array.map ror8 te1
let te3 = Array.map ror8 te2

let td0 =
  Array.init 256 (fun x ->
      let s = inv_sbox.(x) in
      column (gf_mul s 14) (gf_mul s 9) (gf_mul s 13) (gf_mul s 11))

let td1 = Array.map ror8 td0
let td2 = Array.map ror8 td1
let td3 = Array.map ror8 td2

(* --- key schedule ---------------------------------------------------- *)

(* [ek]: the 44 round-key words of the cipher. [dk]: those of FIPS-197
   §5.3.5's equivalent inverse cipher, the rounds in reverse order with
   InvMixColumns applied to rounds 1..9. *)
type key = { ek : int array; dk : int array }

let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1b; 0x36 |]

(* InvMixColumns of one column: [td*] hold InvMixColumns after
   InvSubBytes, and SubBytes first cancels the inverse. *)
let inv_mix w =
  td0.(sbox.(w lsr 24))
  lxor td1.(sbox.((w lsr 16) land 0xff))
  lxor td2.(sbox.((w lsr 8) land 0xff))
  lxor td3.(sbox.(w land 0xff))

let expand key_bytes =
  if String.length key_bytes <> 16 then invalid_arg "Aes128.expand: key must be 16 bytes";
  let ek = Array.make 44 0 in
  for i = 0 to 3 do
    ek.(i) <- word key_bytes i
  done;
  for i = 4 to 43 do
    let temp = ek.(i - 1) in
    let temp =
      if i mod 4 = 0 then begin
        let rot = ((temp lsl 8) lor (temp lsr 24)) land 0xffffffff in
        let sub =
          column sbox.(rot lsr 24) sbox.((rot lsr 16) land 0xff) sbox.((rot lsr 8) land 0xff)
            sbox.(rot land 0xff)
        in
        sub lxor (rcon.((i / 4) - 1) lsl 24)
      end
      else temp
    in
    ek.(i) <- ek.(i - 4) lxor temp
  done;
  let dk =
    Array.init 44 (fun i ->
        let round = i / 4 and c = i mod 4 in
        let w = ek.((4 * (10 - round)) + c) in
        if round = 0 || round = 10 then w else inv_mix w)
  in
  { ek; dk }

(* --- one block ------------------------------------------------------- *)

(* Bounds: every table and round-key read below is unchecked. Loaded
   words are masked to 32 bits ([word]), round keys and table entries
   are 32-bit words, and XOR keeps words below 2^32, so every table
   index ([w lsr 24] or [(w lsr k) land 255]) is in 0..255; round-key
   indices stay below 44 by the round count. This is a reproduction's
   AES: the lookups are indexed by secret bytes, as in any table-driven
   AES, so it is not constant-time. *)
external get : int array -> int -> int = "%array_unsafe_get"

(* One column of a full round: [w] gives row 0, [x] row 1 and so on,
   each row's byte looked up in its own table. *)
let[@inline] mix t0 t1 t2 t3 rk i w x y z =
  get t0 (w lsr 24)
  lxor get t1 ((x lsr 16) land 255)
  lxor get t2 ((y lsr 8) land 255)
  lxor get t3 (z land 255)
  lxor get rk i

(* One column of the last round, which has no MixColumns. *)
let[@inline] sub box rk i w x y z =
  column (get box (w lsr 24)) (get box ((x lsr 16) land 255)) (get box ((y lsr 8) land 255))
    (get box (z land 255))
  lxor get rk i

(* ShiftRows takes row r of column c from column c + r. *)
let rec enc_rounds rk out r a b c d =
  let k = 4 * r in
  if r < 10 then
    enc_rounds rk out (r + 1)
      (mix te0 te1 te2 te3 rk k a b c d)
      (mix te0 te1 te2 te3 rk (k + 1) b c d a)
      (mix te0 te1 te2 te3 rk (k + 2) c d a b)
      (mix te0 te1 te2 te3 rk (k + 3) d a b c)
  else begin
    put out 0 (sub sbox rk k a b c d);
    put out 1 (sub sbox rk (k + 1) b c d a);
    put out 2 (sub sbox rk (k + 2) c d a b);
    put out 3 (sub sbox rk (k + 3) d a b c)
  end

(* The equivalent inverse cipher has the same shape, with the inverse
   tables, [dk], and InvShiftRows taking row r from column c - r. *)
let rec dec_rounds rk out r a b c d =
  let k = 4 * r in
  if r < 10 then
    dec_rounds rk out (r + 1)
      (mix td0 td1 td2 td3 rk k a d c b)
      (mix td0 td1 td2 td3 rk (k + 1) b a d c)
      (mix td0 td1 td2 td3 rk (k + 2) c b a d)
      (mix td0 td1 td2 td3 rk (k + 3) d c b a)
  else begin
    put out 0 (sub inv_sbox rk k a d c b);
    put out 1 (sub inv_sbox rk (k + 1) b a d c);
    put out 2 (sub inv_sbox rk (k + 2) c b a d);
    put out 3 (sub inv_sbox rk (k + 3) d c b a)
  end

let one_block name rounds rk block =
  if String.length block <> 16 then invalid_arg (name ^ ": block must be 16 bytes");
  let out = Bytes.create 16 in
  rounds rk out 1 (word block 0 lxor get rk 0) (word block 1 lxor get rk 1)
    (word block 2 lxor get rk 2) (word block 3 lxor get rk 3);
  out

let encrypt_block key block =
  Bytes.unsafe_to_string (one_block "Aes128.encrypt_block" enc_rounds key.ek block)

let decrypt_block key block =
  Bytes.unsafe_to_string (one_block "Aes128.decrypt_block" dec_rounds key.dk block)

let encrypt_string key s =
  if String.length s > 15 then invalid_arg "Aes128.encrypt_string: at most 15 bytes";
  let padded = s ^ "\x80" ^ String.make (15 - String.length s) '\000' in
  encrypt_block key padded

(* The padding is found in the decrypted bytes, so the id is the one
   copy made. *)
let decrypt_string key block =
  let padded = one_block "Aes128.decrypt_string" dec_rounds key.dk block in
  let rec find i =
    if i < 0 then invalid_arg "Aes128.decrypt_string: bad padding"
    else
      match Bytes.get padded i with
      | '\x80' -> i
      | '\000' -> find (i - 1)
      | _ -> invalid_arg "Aes128.decrypt_string: bad padding"
  in
  Bytes.sub_string padded 0 (find 15)

let ctr_encrypt key ~nonce msg =
  if String.length nonce <> 16 then invalid_arg "Aes128.ctr_encrypt: nonce must be 16 bytes";
  let len = String.length msg in
  let out = Bytes.create len in
  let counter = Bytes.of_string nonce in
  let incr_counter () =
    let rec go i =
      if i >= 0 then begin
        let v = (Char.code (Bytes.get counter i) + 1) land 0xff in
        Bytes.set counter i (Char.chr v);
        if v = 0 then go (i - 1)
      end
    in
    go 15
  in
  let pos = ref 0 in
  while !pos < len do
    let ks = encrypt_block key (Bytes.to_string counter) in
    let n = Stdlib.min 16 (len - !pos) in
    for i = 0 to n - 1 do
      Bytes.set out (!pos + i) (Char.chr (Char.code msg.[!pos + i] lxor Char.code ks.[i]))
    done;
    incr_counter ();
    pos := !pos + 16
  done;
  Bytes.to_string out
