(* FIPS 180-4 SHA-256. Words are kept in native ints masked to 32 bits.

   The compress kernel comes in two flavours: one consuming whole blocks
   straight out of the input string (no per-block blit through the
   context buffer) and one reading the context's own partial-block
   buffer (used for stream boundaries and the padded final block).
   Contexts are cheap to [copy], which the HMAC keyed contexts exploit
   to amortize the ipad/opad key-block compressions across messages. *)

let word_mask = 0xffffffff

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4; 0xab1c5ed5;
     0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174;
     0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967;
     0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
     0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
     0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type ctx = {
  h : int array; (* 8 working-state words *)
  buf : Bytes.t; (* 64-byte partial-block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total message bytes so far *)
  w : int array; (* message schedule scratch; never shared across contexts *)
}

let init () =
  { h = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    w = Array.make 64 0 }

let copy ctx =
  { h = Array.copy ctx.h;
    buf = Bytes.copy ctx.buf;
    buf_len = ctx.buf_len;
    total = ctx.total;
    w = Array.make 64 0 }

let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land word_mask

(* Every compression, whichever entry point: Stats shows how many times
   a request's bytes were hashed. *)
let c_compressions =
  Obs.counter ~help:"SHA-256 block compressions" "slicer_sha256_compressions_total"

(* 64 rounds over the schedule already loaded into ctx.w.(0..15). *)
let rounds ctx =
  Obs.Counter.incr c_compressions;
  let w = ctx.w in
  for t = 16 to 63 do
    let w15 = Array.unsafe_get w (t - 15) and w2 = Array.unsafe_get w (t - 2) in
    let s0 = rotr w15 7 lxor rotr w15 18 lxor (w15 lsr 3) in
    let s1 = rotr w2 17 lxor rotr w2 19 lxor (w2 lsr 10) in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1) land word_mask)
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = (!e land !f) lxor (lnot !e land !g) in
    let t1 = (!hh + s1 + ch + Array.unsafe_get k t + Array.unsafe_get w t) land word_mask in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    let t2 = (s0 + maj) land word_mask in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land word_mask;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + t2) land word_mask
  done;
  h.(0) <- (h.(0) + !a) land word_mask;
  h.(1) <- (h.(1) + !b) land word_mask;
  h.(2) <- (h.(2) + !c) land word_mask;
  h.(3) <- (h.(3) + !d) land word_mask;
  h.(4) <- (h.(4) + !e) land word_mask;
  h.(5) <- (h.(5) + !f) land word_mask;
  h.(6) <- (h.(6) + !g) land word_mask;
  h.(7) <- (h.(7) + !hh) land word_mask

(* Bounds are checked by the callers: [off + 64 <= length s]. *)
let compress_string ctx s off =
  let w = ctx.w in
  for t = 0 to 15 do
    let i = off + (t * 4) in
    Array.unsafe_set w t
      ((Char.code (String.unsafe_get s i) lsl 24)
       lor (Char.code (String.unsafe_get s (i + 1)) lsl 16)
       lor (Char.code (String.unsafe_get s (i + 2)) lsl 8)
       lor Char.code (String.unsafe_get s (i + 3)));
  done;
  rounds ctx

let compress_bytes ctx b off =
  let w = ctx.w in
  for t = 0 to 15 do
    let i = off + (t * 4) in
    Array.unsafe_set w t
      ((Char.code (Bytes.unsafe_get b i) lsl 24)
       lor (Char.code (Bytes.unsafe_get b (i + 1)) lsl 16)
       lor (Char.code (Bytes.unsafe_get b (i + 2)) lsl 8)
       lor Char.code (Bytes.unsafe_get b (i + 3)));
  done;
  rounds ctx

let compress_buf ctx =
  let w = ctx.w and b = ctx.buf in
  for t = 0 to 15 do
    let i = t * 4 in
    Array.unsafe_set w t
      ((Char.code (Bytes.unsafe_get b i) lsl 24)
       lor (Char.code (Bytes.unsafe_get b (i + 1)) lsl 16)
       lor (Char.code (Bytes.unsafe_get b (i + 2)) lsl 8)
       lor Char.code (Bytes.unsafe_get b (i + 3)));
  done;
  rounds ctx

let update ctx s =
  let len = String.length s in
  ctx.total <- ctx.total + len;
  let pos = ref 0 in
  (* Fill a partial block first. *)
  if ctx.buf_len > 0 then begin
    let take = Stdlib.min (64 - ctx.buf_len) len in
    Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 64 then begin
      compress_buf ctx;
      ctx.buf_len <- 0
    end
  end;
  (* Whole blocks straight from the input. *)
  while len - !pos >= 64 do
    compress_string ctx s !pos;
    pos := !pos + 64
  done;
  if !pos < len then begin
    Bytes.blit_string s !pos ctx.buf 0 (len - !pos);
    ctx.buf_len <- len - !pos
  end

let update_sub ctx b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Sha256.update_sub";
  ctx.total <- ctx.total + len;
  let pos = ref off in
  let stop = off + len in
  if ctx.buf_len > 0 then begin
    let take = Stdlib.min (64 - ctx.buf_len) len in
    Bytes.blit b off ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := off + take;
    if ctx.buf_len = 64 then begin
      compress_buf ctx;
      ctx.buf_len <- 0
    end
  end;
  while stop - !pos >= 64 do
    compress_bytes ctx b !pos;
    pos := !pos + 64
  done;
  if !pos < stop then begin
    Bytes.blit b !pos ctx.buf 0 (stop - !pos);
    ctx.buf_len <- stop - !pos
  end

(* Padding and the final one or two blocks are assembled in place in
   ctx.buf — no intermediate string allocations. *)
let finalize_rounds ctx =
  let bit_len = ctx.total * 8 in
  let n = ctx.buf_len in
  Bytes.unsafe_set ctx.buf n '\x80';
  if n + 1 > 56 then begin
    Bytes.fill ctx.buf (n + 1) (63 - n) '\000';
    compress_buf ctx;
    Bytes.fill ctx.buf 0 56 '\000'
  end
  else Bytes.fill ctx.buf (n + 1) (55 - n) '\000';
  for i = 0 to 7 do
    Bytes.unsafe_set ctx.buf (56 + i) (Char.unsafe_chr ((bit_len lsr ((7 - i) * 8)) land 0xff))
  done;
  compress_buf ctx;
  ctx.buf_len <- 0

let finalize_trunc ctx n =
  if n < 1 || n > 32 then invalid_arg "Sha256.finalize_trunc: need 1 <= n <= 32";
  finalize_rounds ctx;
  let out = Bytes.create n in
  for i = 0 to n - 1 do
    let word = Array.unsafe_get ctx.h (i / 4) in
    Bytes.unsafe_set out i (Char.unsafe_chr ((word lsr ((3 - (i mod 4)) * 8)) land 0xff))
  done;
  Bytes.unsafe_to_string out

let finalize ctx = finalize_trunc ctx 32

let digest s =
  let ctx = init () in
  update ctx s;
  finalize ctx

let digest_hex s = Bytesutil.to_hex (digest s)
