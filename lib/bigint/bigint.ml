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
     256 per byte would be quadratic in the operand size. No closure
     captures the cursors, so they stay unboxed, and [b] is returned as
     it is: the bytes are the call's only allocation. *)
  let acc = ref 0 and accbits = ref 0 and i = ref (nbytes - 1) in
  for k = 0 to Array.length x.mag - 1 do
    acc := !acc lor (x.mag.(k) lsl !accbits);
    accbits := !accbits + limb_bits;
    while !accbits >= 8 && !i >= 0 do
      Bytes.set b !i (Char.unsafe_chr (!acc land 0xff));
      acc := !acc lsr 8;
      accbits := !accbits - 8;
      decr i
    done
  done;
  while !accbits > 0 && !i >= 0 do
    Bytes.set b !i (Char.chr (!acc land 0xff));
    acc := !acc lsr 8;
    accbits := !accbits - 8;
    decr i
  done;
  Bytes.unsafe_to_string b

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

(* Precomputed per-modulus Montgomery state: the kernel's word inverse,
   [R mod m] and [R² mod m], written by the kernel without a
   division. A context is immutable after [create], so one context per
   modulus serves any number of domains concurrently. *)
module Mont = struct
  type ctx = {
    ctx_modulus : t;
    k : int;
    words : Bytes.t;
        (* the kernel's copy (mont_stubs.c): m in n 64-bit words,
           -m^(-1) mod 2^64, R mod m and R² mod m, R = 2^(64·n),
           n = ⌈bits(m)/64⌉ *)
  }

  external setup : int array -> Bytes.t -> unit = "slicer_mont_setup" [@@noalloc]

  let create m =
    if compare m two < 0 then invalid_arg "Bigint.Mont.create: modulus <= 1";
    if is_even m then invalid_arg "Bigint.Mont.create: even modulus";
    let n = (num_bits m + 63) / 64 in
    let words = Bytes.create (8 * ((3 * n) + 1)) in
    setup m.mag words;
    { ctx_modulus = m; k = Array.length m.mag; words }

  let modulus c = c.ctx_modulus
  let words c = ((Bytes.length c.words / 8) - 1) / 3

  (* Every exponent walk keeps its working values in a state string:
     the kernel re-reads it on every call and keeps no pointer into it.
     Each domain keeps one spare state, grown when a walk needs a larger
     one, so a witness warm's hundreds of pairs leave no megabytes of
     large strings to the major collector. A walk takes the spare by an
     atomic exchange and puts its own state back when done: two
     systhreads of one domain never share a state, and a walk that finds
     the spare taken or too small allocates its own. *)
  let spare_state = Domain.DLS.new_key (fun () -> Atomic.make Bytes.empty)

  let with_state size f =
    let spare = Domain.DLS.get spare_state in
    let st =
      let s = Atomic.exchange spare Bytes.empty in
      if Bytes.length s >= size then s else Bytes.create size
    in
    let r = f st in
    Atomic.set spare st;
    r

  (* [out words st i dst] writes slot [i] of a state (n words each) out
     of the domain into [dst]. *)
  external out : Bytes.t -> Bytes.t -> int -> int array -> unit = "slicer_mont_out" [@@noalloc]

  let slot c st i =
    let dst = Array.make c.k 0 in
    out c.words st i dst;
    make 1 dst

  (* Exponent bits per kernel call: a few hundred products, so no call
     holds the runtime for long. *)
  let slice_bits = 256

  (* [step hi lo] over bits [lo, hi) in slices of [slice_bits], the top
     first. *)
  let sliced ~hi ~lo step =
    let hi = ref hi in
    while !hi > lo do
      let l = Stdlib.max lo (!hi - slice_bits) in
      step !hi l;
      hi := l
    done

  (* The ladder kernel: [ladder_start words st b w] sets the accumulator
     to 1 and tables the odd powers of the base [b] < m up to
     b^(2^w - 1); [ladder words st e w hi lo] consumes bits [lo, hi) of
     the exponent magnitude [e] in sliding windows of at most [w] bits.
     [w = 0] is base 2, doubling where a window would multiply. *)
  external ladder_start : Bytes.t -> Bytes.t -> int array -> int -> unit
    = "slicer_mont_ladder_start"
  [@@noalloc]

  external ladder : Bytes.t -> Bytes.t -> int array -> int -> int -> int -> unit
    = "slicer_mont_ladder_byte" "slicer_mont_ladder"
  [@@noalloc]

  (* Window width for a [bits]-bit exponent: bits/(w+1) products
     against the 2^(w-1) - 1 of the table. *)
  let ladder_window bits =
    if bits <= 32 then 1
    else if bits <= 160 then 3
    else if bits <= 768 then 4
    else if bits <= 3072 then 5
    else if bits <= 12288 then 6
    else 7

  (* The accumulator, then 2^(w-1) table entries. *)
  let ladder_size c w = 8 * words c * (1 + if w = 0 then 0 else 1 lsl (w - 1))

  let run_ladder c st b e w ~hi ~lo =
    ladder_start c.words st b w;
    sliced ~hi ~lo (fun hi lo -> ladder c.words st e w hi lo)

  let pow c b e =
    if sign e < 0 then invalid_arg "Bigint.Mont.pow: negative exponent";
    let bits = num_bits e in
    let w = ladder_window bits in
    with_state (ladder_size c w) (fun st ->
        run_ladder c st (erem b c.ctx_modulus).mag e.mag w ~hi:bits ~lo:0;
        slot c st 0)

  (* [strong_tail words st s]: with the accumulator at b^d, whether
     b^d = 1 or b^(d·2^r) = -1 for some r < s. *)
  external strong_tail : Bytes.t -> Bytes.t -> int -> bool = "slicer_mont_strong_tail"
  [@@noalloc]

  let strong_test c ~base =
    let n = c.ctx_modulus in
    (* n - 1 = 2^s·d: d is the bits of n from s up, s the lowest set bit
       of n above bit 0. *)
    let s = ref 1 in
    while not (testbit n !s) do
      incr s
    done;
    let bits = num_bits n in
    let w = if equal base two then 0 else ladder_window (bits - !s) in
    let b = if w = 0 then [||] else (erem base n).mag in
    with_state (ladder_size c w) (fun st ->
        run_ladder c st b n.mag w ~hi:bits ~lo:!s;
        strong_tail c.words st !s)

  (* The Lucas kernel over a state of V_k, V_(k+1) and Q^k:
     [lucas_start words st q] sets k = 1, [lucas_ladder words st e q hi
     lo] doubles through bits [lo, hi) of the index [e], and
     [lucas_tail words st s] is the strong verdict at k = d for
     n + 1 = 2^s·d: 1 for U_d = 0, 2 + r for V_(d·2^r) = 0, else 0. *)
  external lucas_start : Bytes.t -> Bytes.t -> int -> unit = "slicer_mont_lucas_start"
  [@@noalloc]

  external lucas_ladder : Bytes.t -> Bytes.t -> int array -> int -> int -> int -> unit
    = "slicer_mont_lucas_byte" "slicer_mont_lucas"
  [@@noalloc]

  external lucas_tail : Bytes.t -> Bytes.t -> int -> int = "slicer_mont_lucas_tail" [@@noalloc]

  let run_lucas c st ~q e =
    lucas_start c.words st q;
    sliced ~hi:(num_bits e - 1) ~lo:0 (fun hi lo -> lucas_ladder c.words st e.mag q hi lo)

  let lucas c ~q e =
    if sign e < 0 then invalid_arg "Bigint.Mont.lucas: negative index";
    let m = c.ctx_modulus in
    if is_zero e then (erem two m, erem one m, erem one m, true)
    else
      with_state (8 * 3 * words c) (fun st ->
          run_lucas c st ~q e;
          let v = slot c st 0 and v_next = slot c st 1 and qk = slot c st 2 in
          (v, v_next, qk, lucas_tail c.words st 1 = 1))

  let strong_lucas c ~q =
    let n = c.ctx_modulus in
    (* n + 1 = 2^s·d: s counts the trailing ones of n. *)
    let s = ref 0 in
    while testbit n !s do
      incr s
    done;
    let d = shift_right (succ n) !s in
    with_state (8 * 3 * words c) (fun st ->
        run_lucas c st ~q d;
        lucas_tail c.words st !s > 0)

  (* The pair kernel (mont_stubs.c), over a state of B, 2·2^w buckets
     and their flags: [pair_start words st b w] sets B to the base
     [b] < m in the domain and empties the buckets, [pair_digits words
     st e1 e2 w i j] buckets digits [i, j) of both exponent magnitudes,
     advancing B by w squarings before each digit after the first, and
     [pair_fold words st w s dst] folds the bucket set of exponent [s]
     (0 or 1) out of the domain into [dst]. *)
  external pair_start : Bytes.t -> Bytes.t -> int array -> int -> unit = "slicer_mont_pow2_start"
  [@@noalloc]

  external pair_digits : Bytes.t -> Bytes.t -> int array -> int array -> int -> int -> int -> unit
    = "slicer_mont_pow2_digits_byte" "slicer_mont_pow2_digits"
  [@@noalloc]

  external pair_fold : Bytes.t -> Bytes.t -> int -> int -> int array -> unit
    = "slicer_mont_pow2_fold"
  [@@noalloc]

  (* Digit width for a pair whose longer exponent has [bits] bits: the w
     minimising the 2·bits/w digit products plus the 2^(w+2) of folding
     both bucket sets, which moves to w + 1 above w(w+1)·2^(w+1) bits;
     at most 10. *)
  let pair_window bits =
    let rec go w = if w < 10 && bits > (w * (w + 1)) lsl (w + 1) then go (w + 1) else w in
    go 2

  let pow2 c b e1 e2 =
    if sign e1 < 0 || sign e2 < 0 then invalid_arg "Bigint.Mont.pow2: negative exponent";
    let bits = Stdlib.max (num_bits e1) (num_bits e2) in
    let w = pair_window bits in
    let nb = 1 lsl w in
    let size = (8 * words c * (1 + (2 * nb))) + (2 * nb) in
    with_state size (fun st ->
        pair_start c.words st (erem b c.ctx_modulus).mag w;
        let digits = (bits + w - 1) / w and step = slice_bits / w in
        let i = ref 0 in
        while !i < digits do
          let j = Stdlib.min digits (!i + step) in
          pair_digits c.words st e1.mag e2.mag w !i j;
          i := j
        done;
        let d1 = Array.make c.k 0 and d2 = Array.make c.k 0 in
        pair_fold c.words st w 0 d1;
        pair_fold c.words st w 1 d2;
        (make 1 d1, make 1 d2))
end

(* The residue kernels (mont_stubs.c): [residues_into x primes dst] sets
   dst.(i) to |x| mod primes.(i); [first_divisor_kernel x primes] is the
   index of the first prime dividing |x|, or the count. Each checks
   every divisor first: false and -1 mean one is outside [1, base). *)
external residues_into : int array -> int array -> int array -> bool = "slicer_residues"
[@@noalloc]

external first_divisor_kernel : int array -> int array -> int = "slicer_first_divisor"
[@@noalloc]

let divisor_out_of_range name = invalid_arg ("Bigint." ^ name ^ ": divisor out of range")

let residues x primes =
  let dst = Array.make (Array.length primes) 0 in
  if not (residues_into x.mag primes dst) then divisor_out_of_range "residues";
  dst

let first_divisor x primes =
  let i = first_divisor_kernel x.mag primes in
  if i < 0 then divisor_out_of_range "first_divisor";
  i
