(* Arbitrary-precision integers on 31-bit limbs.

   Representation: sign-magnitude. [mag] is a little-endian array of limbs
   in base 2^31 with no leading (high-order) zero limb; [sign] is -1, 0 or
   1, and [sign = 0] iff [mag] is empty. 31-bit limbs keep every
   intermediate product of two limbs plus two limb-sized carries strictly
   below 2^62, so all inner loops stay within OCaml's 63-bit native int. *)

let limb_bits = 31
let base = 1 lsl limb_bits
let mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

(* ------------------------------------------------------------------ *)
(* Magnitude (natural number) primitives.                              *)
(* ------------------------------------------------------------------ *)

(* Drop high-order zero limbs so magnitudes are canonical. *)
let nat_normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let nat_is_zero a = Array.length a = 0

let nat_compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)

let nat_add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = (if la > lb then la else lb) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 2 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land mask;
    carry := s lsr limb_bits
  done;
  r.(lr - 1) <- !carry;
  nat_normalize r

(* Requires a >= b. *)
let nat_sub a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  nat_normalize r

let nat_mul_school a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          (* ai*b.(j) <= (2^31-1)^2; + r + carry stays < 2^63. *)
          let p = (ai * b.(j)) + r.(i + j) + !carry in
          r.(i + j) <- p land mask;
          carry := p lsr limb_bits
        done;
        r.(i + lb) <- r.(i + lb) + !carry
      end
    done;
    nat_normalize r
  end

(* Below this many limbs on either side a product stays in the OCaml
   schoolbook above; larger ones run on the C kernel (mul_stubs.c) over
   64-bit words, schoolbook or Karatsuba, with its temporaries on the C
   heap. The accumulator's product trees multiply multi-megabit prime
   products, where an OCaml recursion's temporaries would be most of
   the process's garbage. *)
let kernel_limbs = 32

external nat_mul_kernel : int array -> int array -> int array = "slicer_nat_mul"
external karatsuba_words : unit -> int = "slicer_karatsuba_words" [@@noalloc]

let nat_mul a b =
  if Array.length a < kernel_limbs || Array.length b < kernel_limbs then nat_mul_school a b
  else nat_mul_kernel a b

(* m must satisfy 0 <= m < base. *)
let nat_mul_small a m =
  if m = 0 || nat_is_zero a then [||]
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let p = (a.(i) * m) + !carry in
      r.(i) <- p land mask;
      carry := p lsr limb_bits
    done;
    r.(la) <- !carry;
    nat_normalize r
  end

let nat_add_small a m =
  if m = 0 then a
  else if nat_is_zero a then [| m |]
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    Array.blit a 0 r 0 la;
    let carry = ref m in
    let i = ref 0 in
    while !carry <> 0 && !i < la do
      let s = r.(!i) + !carry in
      r.(!i) <- s land mask;
      carry := s lsr limb_bits;
      incr i
    done;
    r.(la) <- !carry;
    nat_normalize r
  end

let nat_shift_left a k =
  if nat_is_zero a || k = 0 then Array.copy a
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    if bits = 0 then Array.blit a 0 r limbs la
    else begin
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let v = (a.(i) lsl bits) lor !carry in
        r.(i + limbs) <- v land mask;
        carry := v lsr limb_bits
      done;
      r.(la + limbs) <- !carry
    end;
    nat_normalize r
  end

let nat_shift_right a k =
  if nat_is_zero a || k = 0 then Array.copy a
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length a in
    if limbs >= la then [||]
    else begin
      let lr = la - limbs in
      let r = Array.make lr 0 in
      if bits = 0 then Array.blit a limbs r 0 lr
      else begin
        for i = 0 to lr - 1 do
          let lo = a.(i + limbs) lsr bits in
          let hi = if i + limbs + 1 < la then (a.(i + limbs + 1) lsl (limb_bits - bits)) land mask else 0 in
          r.(i) <- lo lor hi
        done
      end;
      nat_normalize r
    end
  end

let nat_num_bits a =
  let la = Array.length a in
  if la = 0 then 0
  else begin
    let top = a.(la - 1) in
    let rec width n = if n = 0 then 0 else 1 + width (n lsr 1) in
    ((la - 1) * limb_bits) + width top
  end

(* Divisor d must satisfy 0 < d < base. Returns (quotient, remainder). *)
let nat_divmod_small a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    (* r < d <= 2^31-1, so r*base + limb < 2^62. *)
    let cur = (!r lsl limb_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (nat_normalize q, !r)

(* Knuth Algorithm D. Requires Array.length v >= 2 and v normalized
   (no leading zero limb). Returns (quotient, remainder). *)
let nat_divmod_knuth u v =
  let n = Array.length v in
  let m = Array.length u - n in
  if m < 0 then ([||], Array.copy u)
  else begin
    (* Normalize so the top divisor limb has its high bit set. *)
    let rec lead_zeros w acc = if w land (1 lsl (limb_bits - 1)) <> 0 then acc else lead_zeros (w lsl 1) (acc + 1) in
    let s = lead_zeros v.(n - 1) 0 in
    let vn = nat_shift_left v s in
    let vn = if Array.length vn < n then Array.append vn (Array.make (n - Array.length vn) 0) else vn in
    let un = Array.make (m + n + 1) 0 in
    let shifted = nat_shift_left u s in
    Array.blit shifted 0 un 0 (Array.length shifted);
    let q = Array.make (m + 1) 0 in
    let vh = vn.(n - 1) and vl = vn.(n - 2) in
    for j = m downto 0 do
      let num = (un.(j + n) lsl limb_bits) lor un.(j + n - 1) in
      let qhat = ref (num / vh) and rhat = ref (num mod vh) in
      let continue = ref true in
      while !continue do
        if !qhat >= base then begin
          decr qhat;
          rhat := !rhat + vh
        end
        else if !rhat < base && (!qhat * vl) > ((!rhat lsl limb_bits) lor un.(j + n - 2)) then begin
          decr qhat;
          rhat := !rhat + vh
        end
        else continue := false
      done;
      (* Multiply and subtract qhat * vn from un[j .. j+n]. *)
      let borrow = ref 0 in
      for i = 0 to n - 1 do
        let p = (!qhat * vn.(i)) + !borrow in
        let sub = un.(j + i) - (p land mask) in
        if sub < 0 then begin
          un.(j + i) <- sub + base;
          borrow := (p lsr limb_bits) + 1
        end
        else begin
          un.(j + i) <- sub;
          borrow := p lsr limb_bits
        end
      done;
      let sub = un.(j + n) - !borrow in
      if sub < 0 then begin
        (* qhat was one too large: add the divisor back. *)
        un.(j + n) <- sub + base;
        q.(j) <- !qhat - 1;
        let carry = ref 0 in
        for i = 0 to n - 1 do
          let s2 = un.(j + i) + vn.(i) + !carry in
          un.(j + i) <- s2 land mask;
          carry := s2 lsr limb_bits
        done;
        un.(j + n) <- (un.(j + n) + !carry) land mask
      end
      else begin
        un.(j + n) <- sub;
        q.(j) <- !qhat
      end
    done;
    let r = nat_shift_right (nat_normalize (Array.sub un 0 n)) s in
    (nat_normalize q, r)
  end

let nat_divmod a b =
  match Array.length b with
  | 0 -> raise Division_by_zero
  | 1 ->
    let q, r = nat_divmod_small a b.(0) in
    (q, if r = 0 then [||] else [| r |])
  | _ -> if nat_compare a b < 0 then ([||], Array.copy a) else nat_divmod_knuth a b

(* ------------------------------------------------------------------ *)
(* Signed layer.                                                       *)
(* ------------------------------------------------------------------ *)

let make sign mag =
  let mag = nat_normalize mag in
  if nat_is_zero mag then zero else { sign; mag }

let of_int n =
  if n = 0 then zero
  else begin
    let sign = if n < 0 then -1 else 1 in
    let rec limbs n acc = if n = 0 then List.rev acc else limbs (n lsr limb_bits) ((n land mask) :: acc) in
    (* |min_int| overflows native negation: build |min_int + 1| then add 1. *)
    let mag =
      if n = Stdlib.min_int then nat_add_small (Array.of_list (limbs Stdlib.max_int [])) 1
      else Array.of_list (limbs (Stdlib.abs n) [])
    in
    { sign; mag }
  end

let one = of_int 1
let two = of_int 2
let minus_one = of_int (-1)

let sign x = x.sign
let is_zero x = x.sign = 0

let compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else if a.sign >= 0 then nat_compare a.mag b.mag
  else nat_compare b.mag a.mag

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let neg x = if is_zero x then zero else { x with sign = -x.sign }
let abs x = if x.sign < 0 then neg x else x

let add a b =
  if is_zero a then b
  else if is_zero b then a
  else if a.sign = b.sign then make a.sign (nat_add a.mag b.mag)
  else begin
    let c = nat_compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make a.sign (nat_sub a.mag b.mag)
    else make b.sign (nat_sub b.mag a.mag)
  end

let sub a b = add a (neg b)
let succ x = add x one
let pred x = sub x one

let mul a b =
  if is_zero a || is_zero b then zero else make (a.sign * b.sign) (nat_mul a.mag b.mag)

let add_int a n = add a (of_int n)

let mul_int a n =
  if n = 0 || is_zero a then zero
  else if n > 0 && n < base then make a.sign (nat_mul_small a.mag n)
  else mul a (of_int n)

(* Euclidean division: remainder is always in [0, |b|). *)
let divmod a b =
  if is_zero b then raise Division_by_zero;
  let q, r = nat_divmod a.mag b.mag in
  let q = make (a.sign * b.sign) q and r = make 1 r in
  if a.sign >= 0 || is_zero r then (q, r)
  else begin
    (* Negative dividend: shift the truncated result to Euclidean form. *)
    let babs = abs b in
    (sub q (if b.sign > 0 then one else minus_one), sub babs r)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let divmod_int a d =
  if d <= 0 || d >= base then invalid_arg "Bigint.divmod_int: divisor out of range";
  let q, r = nat_divmod_small a.mag d in
  let q = make a.sign q in
  if a.sign >= 0 || r = 0 then (q, r) else (pred q, d - r)

let pow x n =
  if n < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc b n = if n = 0 then acc else go (if n land 1 = 1 then mul acc b else acc) (mul b b) (n lsr 1) in
  go one x n

let shift_left x k =
  if k < 0 then invalid_arg "Bigint.shift_left";
  if is_zero x then zero else make x.sign (nat_shift_left x.mag k)

let shift_right x k =
  if k < 0 then invalid_arg "Bigint.shift_right";
  if is_zero x then zero else make x.sign (nat_shift_right x.mag k)

let num_bits x = nat_num_bits x.mag

let testbit x i =
  if i < 0 then invalid_arg "Bigint.testbit";
  let limb = i / limb_bits and bit = i mod limb_bits in
  limb < Array.length x.mag && (x.mag.(limb) lsr bit) land 1 = 1

let is_even x = not (testbit x 0)
let is_odd x = testbit x 0

let to_int_opt x =
  (* Fits when at most 62 significant bits (conservative for both signs). *)
  if num_bits x > 62 then None
  else begin
    let v = Array.fold_right (fun limb acc -> (acc lsl limb_bits) lor limb) x.mag 0 in
    Some (if x.sign < 0 then -v else v)
  end

let to_int_exn x =
  match to_int_opt x with
  | Some v -> v
  | None -> failwith "Bigint.to_int_exn: does not fit in int"

(* ------------------------------------------------------------------ *)
(* Radix conversion.                                                   *)
(* ------------------------------------------------------------------ *)

let decimal_chunk = 1_000_000_000 (* 10^9 < 2^31 *)

let to_string x =
  if is_zero x then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec chunks mag acc =
      if nat_is_zero mag then acc
      else begin
        let q, r = nat_divmod_small mag decimal_chunk in
        chunks q (r :: acc)
      end
    in
    (match chunks x.mag [] with
     | [] -> assert false
     | first :: rest ->
       if x.sign < 0 then Buffer.add_char buf '-';
       Buffer.add_string buf (string_of_int first);
       List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    Buffer.contents buf
  end

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  let negative, start =
    match s.[0] with '-' -> (true, 1) | '+' -> (false, 1) | _ -> (false, 0)
  in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  let acc = ref zero in
  let chunk = ref 0 and chunk_len = ref 0 in
  for i = start to len - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then invalid_arg "Bigint.of_string: bad digit";
    chunk := (!chunk * 10) + (Char.code c - Char.code '0');
    incr chunk_len;
    if !chunk_len = 9 then begin
      acc := add_int (mul_int !acc decimal_chunk) !chunk;
      chunk := 0;
      chunk_len := 0
    end
  done;
  if !chunk_len > 0 then begin
    let scale = int_of_float (10. ** float_of_int !chunk_len) in
    acc := add_int (mul_int !acc scale) !chunk
  end;
  if negative then neg !acc else !acc

let of_hex s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_hex: empty string";
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Bigint.of_hex: bad digit"
  in
  let acc = ref zero in
  String.iter (fun c -> acc := add_int (mul_int !acc 16) (digit c)) s;
  !acc

let to_hex x =
  if is_zero x then "0"
  else begin
    let nibbles = (num_bits x + 3) / 4 in
    let buf = Buffer.create nibbles in
    for i = nibbles - 1 downto 0 do
      let limb = (i * 4) / limb_bits and off = (i * 4) mod limb_bits in
      let v =
        if limb >= Array.length x.mag then 0
        else begin
          let lo = x.mag.(limb) lsr off in
          let hi = if off > limb_bits - 4 && limb + 1 < Array.length x.mag then x.mag.(limb + 1) lsl (limb_bits - off) else 0 in
          (lo lor hi) land 0xf
        end
      in
      Buffer.add_char buf "0123456789abcdef".[v]
    done;
    (* Drop any leading zero nibble produced by rounding. *)
    let s = Buffer.contents buf in
    let i = ref 0 in
    while !i < String.length s - 1 && s.[!i] = '0' do incr i done;
    String.sub s !i (String.length s - !i)
  end

(* Bytes straight into limbs, least significant first (O(n)); folding
   acc·256 + byte would copy the growing magnitude once per byte. *)
let of_bytes_be s =
  let n = String.length s in
  let first = ref 0 in
  while !first < n && s.[!first] = '\000' do
    incr first
  done;
  if !first = n then zero
  else begin
    let rec width v = if v = 0 then 0 else 1 + width (v lsr 1) in
    let bits = (8 * (n - !first - 1)) + width (Char.code s.[!first]) in
    let mag = Array.make ((bits + limb_bits - 1) / limb_bits) 0 in
    let acc = ref 0 and accbits = ref 0 and j = ref 0 in
    for i = n - 1 downto !first do
      acc := !acc lor (Char.code (String.unsafe_get s i) lsl !accbits);
      accbits := !accbits + 8;
      if !accbits >= limb_bits then begin
        mag.(!j) <- !acc land mask;
        incr j;
        acc := !acc lsr limb_bits;
        accbits := !accbits - limb_bits
      end
    done;
    (* The top byte's leading zero bits may leave nothing to flush. *)
    if !j < Array.length mag then mag.(!j) <- !acc;
    { sign = 1; mag }
  end

let to_bytes_be ?len x =
  let nbytes = Stdlib.max 1 ((num_bits x + 7) / 8) in
  let nbytes =
    match len with
    | None -> nbytes
    | Some l ->
      if l < nbytes then invalid_arg "Bigint.to_bytes_be: value too large for len";
      l
  in
  let b = Bytes.make nbytes '\000' in
  (* Stream bits out of the 31-bit limbs directly (O(n)); dividing by
     256 per byte would be quadratic in the operand size. *)
  let acc = ref 0 and accbits = ref 0 and i = ref (nbytes - 1) in
  let flush () =
    while !accbits >= 8 && !i >= 0 do
      Bytes.set b !i (Char.unsafe_chr (!acc land 0xff));
      acc := !acc lsr 8;
      accbits := !accbits - 8;
      decr i
    done
  in
  Array.iter
    (fun limb ->
      acc := !acc lor (limb lsl !accbits);
      accbits := !accbits + limb_bits;
      flush ())
    x.mag;
  while !accbits > 0 && !i >= 0 do
    Bytes.set b !i (Char.chr (!acc land 0xff));
    acc := !acc lsr 8;
    accbits := !accbits - 8;
    decr i
  done;
  Bytes.to_string b

let pp fmt x = Format.pp_print_string fmt (to_string x)

let mul_schoolbook a b =
  if is_zero a || is_zero b then zero else make (a.sign * b.sign) (nat_mul_school a.mag b.mag)

let mul_kernel a b =
  if is_zero a || is_zero b then zero else make (a.sign * b.sign) (nat_mul_kernel a.mag b.mag)

let karatsuba_words = karatsuba_words ()

(* ------------------------------------------------------------------ *)
(* Modular arithmetic.                                                 *)
(* ------------------------------------------------------------------ *)

let erem a m =
  if is_zero m then raise Division_by_zero;
  snd (divmod a (abs m))

let mod_add a b m = erem (add a b) m
let mod_sub a b m = erem (sub a b) m
let mod_mul a b m = erem (mul a b) m

let gcd a b =
  let rec go a b = if is_zero b then a else go b (erem a b) in
  go (abs a) (abs b)

let egcd a b =
  (* Iterative extended Euclid on signed values. *)
  let rec go old_r r old_s s old_t t =
    if is_zero r then (old_r, old_s, old_t)
    else begin
      let q = div old_r r in
      go r (sub old_r (mul q r)) s (sub old_s (mul q s)) t (sub old_t (mul q t))
    end
  in
  let g, x, y = go a b one zero zero one in
  if sign g < 0 then (neg g, neg x, neg y) else (g, x, y)

let mod_inv a m =
  let m = abs m in
  if compare m two < 0 then None
  else begin
    let g, x, _ = egcd (erem a m) m in
    if equal g one then Some (erem x m) else None
  end

(* --- Montgomery exponentiation (odd modulus) ----------------------- *)

(* Precomputed per-modulus Montgomery state. Everything [mod_pow]
   re-derives on every call — the kernel's word inverse, [R mod m], and
   the conversion of the base into Montgomery form by a general
   division — is either stored here or replaced by one Montgomery
   multiplication against [R² mod m]. A context is immutable after
   [create], so one context per modulus serves any number of domains
   concurrently. *)
module Mont = struct
  type ctx = {
    ctx_modulus : t;
    mmag : int array;
    k : int;
    words : Bytes.t;  (* the kernel's copy: m in n 64-bit words, then -m^(-1) mod 2^64 *)
    r1 : int array;  (* R mod m, R = 2^(64·n), n = ⌈bits(m)/64⌉ *)
    r2 : int array;  (* R² mod m: one kernel product against it converts into the domain *)
  }

  (* A residue in Montgomery form: a (k+1)-limb buffer holding a value
     below m, top limb zero between operations (the spare limb holds the
     a + m < 2m of [add_m_into]). *)
  type elt = int array

  (* The C kernel (mont_stubs.c). [kernel_mul words dst a b] sets
     dst <- a·b·R^(-1) mod m and [kernel_sqr words dst a] sets
     dst <- a²·R^(-1) mod m, for operands below m given as limb arrays
     of any length; every limb of [dst] is written, and [dst] may alias
     an operand. *)
  external setup : int array -> Bytes.t -> unit = "slicer_mont_setup" [@@noalloc]

  external kernel_mul : Bytes.t -> int array -> int array -> int array -> unit
    = "slicer_mont_mul"
  [@@noalloc]

  external kernel_sqr : Bytes.t -> int array -> int array -> unit = "slicer_mont_sqr"
  [@@noalloc]

  let create m =
    if compare m two < 0 then invalid_arg "Bigint.Mont.create: modulus <= 1";
    if is_even m then invalid_arg "Bigint.Mont.create: even modulus";
    let n = (num_bits m + 63) / 64 in
    let words = Bytes.create (8 * (n + 1)) in
    setup m.mag words;
    let r = shift_left one (64 * n) in
    { ctx_modulus = m;
      mmag = m.mag;
      k = Array.length m.mag;
      words;
      r1 = (erem r m).mag;
      r2 = (erem (mul r r) m).mag }

  let modulus c = c.ctx_modulus
  let mul_into c dst a b = kernel_mul c.words dst a b
  let sqr_into c dst a = kernel_sqr c.words dst a
  let buffer c = Array.make (c.k + 1) 0

  let pad c mag =
    let buf = buffer c in
    Array.blit mag 0 buf 0 (Array.length mag);
    buf

  (* dst <- a + m over k+1 limbs, dropping any carry out of the top
     limb: completes a wrapped-around subtraction, or makes an odd
     value even for halving (a + m < 2m fits). *)
  let add_m_into c dst a =
    let mmag = c.mmag and k = c.k in
    let carry = ref 0 in
    for i = 0 to k do
      let s = a.(i) + (if i < k then mmag.(i) else 0) + !carry in
      dst.(i) <- s land mask;
      carry := s lsr limb_bits
    done

  (* dst < 2m: one conditional subtraction normalises it below m. *)
  let reduce_once c dst =
    let mmag = c.mmag and k = c.k in
    let i = ref (k - 1) in
    while !i >= 0 && dst.(!i) = mmag.(!i) do
      decr i
    done;
    if dst.(k) <> 0 || !i < 0 || dst.(!i) > mmag.(!i) then begin
      let borrow = ref 0 in
      for i = 0 to k - 1 do
        let d = dst.(i) - mmag.(i) - !borrow in
        dst.(i) <- d land mask;
        borrow := (d asr limb_bits) land 1
      done;
      dst.(k) <- dst.(k) - !borrow
    end

  (* dst <- a + b mod m. *)
  let add_into c dst a b =
    let carry = ref 0 in
    for i = 0 to c.k do
      let s = a.(i) + b.(i) + !carry in
      dst.(i) <- s land mask;
      carry := s lsr limb_bits
    done;
    reduce_once c dst

  (* dst <- a - b mod m. Limb differences lie in [-2^31, 2^31), so the
     low 31 bits and the sign bit give the digit and the borrow. *)
  let sub_into c dst a b =
    let borrow = ref 0 in
    for i = 0 to c.k do
      let d = a.(i) - b.(i) - !borrow in
      dst.(i) <- d land mask;
      borrow := (d asr limb_bits) land 1
    done;
    if !borrow <> 0 then add_m_into c dst dst

  (* dst <- a / 2 mod m: an odd value becomes even by adding m. *)
  let half_into c dst a =
    let k = c.k in
    if a.(0) land 1 = 1 then add_m_into c dst a else if dst != a then Array.blit a 0 dst 0 (k + 1);
    for i = 0 to k - 1 do
      dst.(i) <- (dst.(i) lsr 1) lor ((dst.(i + 1) land 1) lsl (limb_bits - 1))
    done;
    dst.(k) <- dst.(k) lsr 1

  (* Into Montgomery form by one kernel product against the cached R²:
     (x mod m)·R²·R^(-1) = x·R mod m. *)
  let to_mont c x =
    let dst = buffer c in
    mul_into c dst (erem x c.ctx_modulus).mag c.r2;
    dst

  let one_limb = [| 1 |]

  (* Out of Montgomery form: a kernel product with 1. Accepts any limb
     array below m, so callers holding Montgomery forms as plain values
     ([Fixed_base]) pass their magnitudes as they are. *)
  let of_mont c x =
    let dst = Array.make c.k 0 in
    mul_into c dst x one_limb;
    make 1 dst

  let pow_mont c b e =
    if sign e < 0 then invalid_arg "Bigint.mod_pow: negative exponent";
    if is_zero e then pad c c.r1
    else begin
      let b_mont = to_mont c b in
      if Array.for_all (fun l -> l = 0) b_mont then b_mont
      else begin
        let acc = pad c c.r1 in
        let bits = num_bits e in
        (* Sliding-window: precompute the odd powers b^1, b^3, …,
           b^(2^w - 1) in Montgomery form, then consume the exponent in
           windows that end on a set bit — bits/(w+1) multiplies instead
           of bits/2, with the squaring count unchanged. *)
        let w =
          if bits <= 32 then 1
          else if bits <= 160 then 3
          else if bits <= 768 then 4
          else if bits <= 3072 then 5
          else if bits <= 12288 then 6
          else 7
        in
        let tbl = Array.make (1 lsl (w - 1)) [||] in
        tbl.(0) <- b_mont;
        if w > 1 then begin
          let bsq = buffer c in
          sqr_into c bsq tbl.(0);
          for i = 1 to Array.length tbl - 1 do
            let d = buffer c in
            mul_into c d tbl.(i - 1) bsq;
            tbl.(i) <- d
          done
        end;
        let i = ref (bits - 1) in
        while !i >= 0 do
          if not (testbit e !i) then begin
            sqr_into c acc acc;
            decr i
          end
          else begin
            (* Largest window [j, i] of width <= w whose low bit is set. *)
            let j = ref (Stdlib.max 0 (!i - w + 1)) in
            while not (testbit e !j) do
              incr j
            done;
            for _ = 1 to !i - !j + 1 do
              sqr_into c acc acc
            done;
            let v = ref 0 in
            for bi = !i downto !j do
              v := (!v lsl 1) lor (if testbit e bi then 1 else 0)
            done;
            mul_into c acc acc tbl.(!v lsr 1);
            i := !j - 1
          end
        done;
        acc
      end
    end

  let pow c b e = of_mont c (pow_mont c b e)

  let sqr c a =
    let dst = buffer c in
    sqr_into c dst a;
    dst

  let add c a b =
    let dst = buffer c in
    add_into c dst a b;
    dst

  let sub c a b =
    let dst = buffer c in
    sub_into c dst a b;
    dst

  let equal (a : elt) b = a = b

  (* x <- -x mod m, in place. *)
  let negate c x =
    if Array.exists (fun l -> l <> 0) x then begin
      let borrow = ref 0 in
      for i = 0 to c.k do
        let d = (if i < c.k then c.mmag.(i) else 0) - x.(i) - !borrow in
        x.(i) <- d land mask;
        borrow := (d asr limb_bits) land 1
      done
    end

  (* dst <- a·s mod m for a small signed s, by double-and-add over |s|:
     a few modular additions where a full product would pay a
     multiply-and-reduce. Scaling a Montgomery form X·R by a plain s
     gives (X·s)·R, so s needs no conversion. [dst] must not alias [a]. *)
  let mul_small_into c dst a s =
    let n = Stdlib.abs s in
    if n = 0 then Array.fill dst 0 (c.k + 1) 0
    else begin
      Array.blit a 0 dst 0 (c.k + 1);
      let top = ref 0 in
      while n lsr (!top + 1) <> 0 do
        incr top
      done;
      for i = !top - 1 downto 0 do
        add_into c dst dst dst;
        if (n lsr i) land 1 = 1 then add_into c dst dst a
      done;
      if s < 0 then negate c dst
    end

  (* Lucas sequences with P = 1 (Selfridge's parameters), D = 1 - 4Q,
     by the binary doubling ladder from U_1 = 1, V_1 = P, Q^1 = Q:

       U_2j = U_j·V_j        V_2j = V_j² - 2Q^j        Q^2j = (Q^j)²
       U_2j+1 = (U_2j + V_2j)/2    V_2j+1 = (D·U_2j + V_2j)/2    Q^2j+1 = Q^2j·Q

     — three full-size products per exponent bit, all in the Montgomery
     domain on [pow]'s kernel; the set-bit steps scale by the small
     constants D and Q with modular additions. *)
  let lucas c ~q e =
    if sign e < 0 then invalid_arg "Bigint.Mont.lucas: negative index";
    if is_zero e then (to_mont c zero, to_mont c two, pad c c.r1)
    else begin
      let d = 1 - (4 * q) in
      let one_m = pad c c.r1 in
      let u = Array.copy one_m and v = Array.copy one_m and qk = to_mont c (of_int q) in
      let w = buffer c in
      for i = num_bits e - 2 downto 0 do
        mul_into c u u v;
        sqr_into c v v;
        sub_into c v v qk;
        sub_into c v v qk;
        (* Q = -1 (D = 5, half of all primes): Q^j stays ±1, and
           squaring it is a copy. *)
        if Stdlib.abs q = 1 then Array.blit one_m 0 qk 0 (c.k + 1) else sqr_into c qk qk;
        if testbit e i then begin
          mul_small_into c w u d;
          add_into c w w v;
          half_into c w w;
          add_into c u u v;
          half_into c u u;
          Array.blit w 0 v 0 (c.k + 1);
          mul_small_into c w qk q;
          Array.blit w 0 qk 0 (c.k + 1)
        end
      done;
      (u, v, qk)
    end
end

let mod_pow b e m =
  if sign e < 0 then invalid_arg "Bigint.mod_pow: negative exponent";
  if compare m two < 0 then invalid_arg "Bigint.mod_pow: modulus <= 1";
  if is_zero e then erem one m
  else if is_even m then begin
    (* Rare path: plain square-and-multiply with division-based reduction. *)
    let b = erem b m in
    let bits = num_bits e in
    let acc = ref (erem one m) in
    for i = bits - 1 downto 0 do
      acc := mod_mul !acc !acc m;
      if testbit e i then acc := mod_mul !acc b m
    done;
    !acc
  end
  else Mont.pow (Mont.create m) b e

(* ------------------------------------------------------------------ *)
(* Fixed-base exponentiation.                                          *)
(* ------------------------------------------------------------------ *)

module Fixed_base = struct
  (* Fixed-base windowed exponentiation (Brickell-Gordon-McCurley-Wilson
     with 8-bit windows). anchors.(i) = base^(2^(8*i)) mod modulus, so an
     exponent's byte digits select anchors directly:

       base^e = Π_i anchors.(i)^(digit_i e)
              = Π_{d=255..1} (Π_{i : digit_i = d} anchors.(i))^d

     The bucket products cost one multiply per nonzero digit, and the
     outer Π c_d^d telescopes with a running product — ~B/8 + 510
     multiplies for a B-bit exponent, versus B squarings for a ladder.
     The anchor chain (B squarings) is computed once per base and
     amortized over every later call.

     Digits are processed in fixed-size segments of [chunk_bits]; each
     segment's partial product is an independent task a domain pool can
     run in parallel, and the combine order (ascending segment) is fixed
     by the exponent size alone, so results never depend on scheduling. *)

  let window = 8 (* bits per anchor: digits are exponent bytes *)

  type powers = {
    fb_modulus : t;
    fb_base : t;
    fb_mont : Mont.ctx option; (* odd modulus: the anchors' Montgomery context *)
    fb_chunk : int; (* segment granularity in exponent bits *)
    fb_seg_digits : int; (* = fb_chunk / window *)
    fb_lock : Mutex.t;
    mutable fb_anchors : t array;
    mutable fb_count : int;
  }

  (* The anchors' arithmetic. Over an odd modulus the anchors, buckets
     and segment products all stay in Montgomery form and multiply on
     the kernel, leaving the domain once per [pow]; an even modulus
     multiplies plain residues by division. *)
  let enter fb x =
    match fb.fb_mont with
    | Some c -> make 1 (Mont.to_mont c x)
    | None -> erem x fb.fb_modulus

  let leave fb x = match fb.fb_mont with Some c -> Mont.of_mont c x.mag | None -> x

  let mul fb a b =
    match fb.fb_mont with
    | Some c ->
      let dst = Array.make c.Mont.k 0 in
      Mont.mul_into c dst a.mag b.mag;
      make 1 dst
    | None -> mod_mul a b fb.fb_modulus

  (* anchor^(2^window), in the anchors' form. *)
  let next_anchor fb a =
    match fb.fb_mont with
    | Some c ->
      let acc = Array.make c.Mont.k 0 in
      Mont.sqr_into c acc a.mag;
      for _ = 2 to window do
        Mont.sqr_into c acc acc
      done;
      make 1 acc
    | None -> mod_pow a (shift_left one window) fb.fb_modulus

  let create ?(chunk_bits = 32768) ~modulus base =
    if chunk_bits < window then invalid_arg "Bigint.Fixed_base.create: chunk_bits < 8";
    if compare modulus two < 0 then invalid_arg "Bigint.Fixed_base.create: modulus <= 1";
    let fb =
      { fb_modulus = modulus;
        fb_base = erem base modulus;
        fb_mont = (if is_odd modulus then Some (Mont.create modulus) else None);
        fb_chunk = chunk_bits;
        fb_seg_digits = Stdlib.max 1 (chunk_bits / window);
        fb_lock = Mutex.create ();
        fb_anchors = [||];
        fb_count = 1 }
    in
    fb.fb_anchors <- Array.make 8 (enter fb fb.fb_base);
    fb

  let base fb = fb.fb_base
  let modulus fb = fb.fb_modulus
  let chunk_bits fb = fb.fb_chunk

  (* Growing the chain costs one squaring per bit of coverage — as much
     as a whole direct exponentiation — so callers without reuse or
     parallelism to recoup the investment check [ready] first. *)
  let ready fb e =
    let digits = (num_bits e + window - 1) / window in
    Mutex.lock fb.fb_lock;
    let n = fb.fb_count in
    Mutex.unlock fb.fb_lock;
    digits <= n

  (* Extend the anchor chain through index k and return an immutable
     snapshot, so concurrent [pow] calls never observe a resize. *)
  let anchors_through fb k =
    Mutex.lock fb.fb_lock;
    let snapshot =
      try
        if k >= fb.fb_count then begin
          if k >= Array.length fb.fb_anchors then begin
            let bigger = Array.make (Stdlib.max (k + 1) (2 * Array.length fb.fb_anchors)) zero in
            Array.blit fb.fb_anchors 0 bigger 0 fb.fb_count;
            fb.fb_anchors <- bigger
          end;
          for j = fb.fb_count to k do
            fb.fb_anchors.(j) <- next_anchor fb fb.fb_anchors.(j - 1)
          done;
          fb.fb_count <- k + 1
        end;
        Array.sub fb.fb_anchors 0 (k + 1)
      with e ->
        Mutex.unlock fb.fb_lock;
        raise e
    in
    Mutex.unlock fb.fb_lock;
    snapshot

  (* BGMW aggregation of one digit segment [lo, hi): bucket the anchors
     by digit value, then Π_{d} c_d^d via the telescoping double fold. *)
  let segment fb (digits : string) anchors lo hi =
    let buckets = Array.make 256 None in
    for i = lo to hi - 1 do
      let d = Char.code digits.[i] in
      if d > 0 then
        buckets.(d) <-
          (match buckets.(d) with
           | None -> Some anchors.(i)
           | Some c -> Some (mul fb c anchors.(i)))
    done;
    let acc = ref None and running = ref None in
    for d = 255 downto 1 do
      (match buckets.(d) with
       | None -> ()
       | Some c -> running := Some (match !running with None -> c | Some r -> mul fb r c));
      match !running with
      | None -> ()
      | Some r -> acc := Some (match !acc with None -> r | Some a -> mul fb a r)
    done;
    !acc

  let pow ?run fb e =
    if sign e < 0 then invalid_arg "Bigint.Fixed_base.pow: negative exponent";
    if is_zero e then erem one fb.fb_modulus
    else begin
      (* Little-endian byte digits of the exponent. *)
      let be = to_bytes_be e in
      let nd = String.length be in
      let digits = String.init nd (fun i -> be.[nd - 1 - i]) in
      let anchors = anchors_through fb (nd - 1) in
      let nseg = (nd + fb.fb_seg_digits - 1) / fb.fb_seg_digits in
      let unit = enter fb one in
      let thunks =
        Array.init nseg (fun s ->
            fun () ->
              let lo = s * fb.fb_seg_digits in
              let hi = Stdlib.min nd (lo + fb.fb_seg_digits) in
              match segment fb digits anchors lo hi with
              | Some v -> v
              | None -> unit)
      in
      let parts =
        match run with
        | Some run -> run thunks
        | None -> Array.map (fun f -> f ()) thunks
      in
      (* Deterministic combine order: ascending segment index. *)
      leave fb (Array.fold_left (mul fb) unit parts)
    end
end
