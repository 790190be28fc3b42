type t = { mutable k : string; mutable v : string; mutable kd : Hmac.keyed }

(* Every HMAC in the generator runs under the current K; the keyed
   context is rebuilt only when K rotates (twice per update), so the
   per-block cost of [generate] is two compressions, not four. *)
let set_key t k =
  t.k <- k;
  t.kd <- Hmac.create ~key:k

(* HMAC-DRBG update step (SP 800-90A §10.1.2.2). *)
let update t provided =
  set_key t (Hmac.sha256_keyed t.kd (t.v ^ "\x00" ^ provided));
  t.v <- Hmac.sha256_keyed t.kd t.v;
  if provided <> "" then begin
    set_key t (Hmac.sha256_keyed t.kd (t.v ^ "\x01" ^ provided));
    t.v <- Hmac.sha256_keyed t.kd t.v
  end

let create ~seed =
  let k0 = String.make 32 '\000' in
  let t = { k = k0; v = String.make 32 '\x01'; kd = Hmac.create ~key:k0 } in
  update t seed;
  t

let generate t n =
  let buf = Buffer.create n in
  while Buffer.length buf < n do
    t.v <- Hmac.sha256_keyed t.kd t.v;
    Buffer.add_string buf t.v
  done;
  update t "";
  Buffer.sub buf 0 n

let reseed t input = update t input

let uniform_int t bound =
  if bound <= 0 then invalid_arg "Drbg.uniform_int: bound must be positive";
  if bound = 1 then 0
  else begin
    (* Rejection sampling over 62-bit draws. *)
    let limit = max_int - (max_int mod bound) in
    let rec draw () =
      let b = generate t 8 in
      let v =
        String.fold_left (fun acc c -> ((acc lsl 8) lor Char.code c) land max_int) 0 b
      in
      if v >= limit then draw () else v mod bound
    in
    draw ()
  end

let uniform_bigint t bound =
  if Bigint.sign bound <= 0 then invalid_arg "Drbg.uniform_bigint: bound must be positive";
  let nbits = Bigint.num_bits bound in
  let nbytes = (nbits + 7) / 8 in
  let excess_bits = (nbytes * 8) - nbits in
  let rec draw () =
    let raw = generate t nbytes in
    (* Mask the excess high bits so the draw is in [0, 2^nbits). *)
    let raw =
      if excess_bits = 0 then raw
      else String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c land (0xff lsr excess_bits)) else c) raw
    in
    let v = Bigint.of_bytes_be raw in
    if Bigint.compare v bound < 0 then v else draw ()
  in
  draw ()

let bits t n =
  if n < 1 then invalid_arg "Drbg.bits: need n >= 1";
  let below = uniform_bigint t (Bigint.shift_left Bigint.one (n - 1)) in
  if n = 1 then Bigint.one else Bigint.add (Bigint.shift_left Bigint.one (n - 1)) below
