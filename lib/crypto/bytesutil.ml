let to_hex s =
  let buf = Buffer.create (String.length s * 2) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents buf

let of_hex s =
  let len = String.length s in
  if len mod 2 <> 0 then invalid_arg "Bytesutil.of_hex: odd length";
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Bytesutil.of_hex: bad digit"
  in
  String.init (len / 2) (fun i -> Char.chr ((digit s.[2 * i] lsl 4) lor digit s.[(2 * i) + 1]))

let xor a b =
  if String.length a <> String.length b then invalid_arg "Bytesutil.xor: length mismatch";
  String.init (String.length a) (fun i -> Char.chr (Char.code a.[i] lxor Char.code b.[i]))

let const_equal a b =
  if String.length a <> String.length b then false
  else begin
    let acc = ref 0 in
    String.iteri (fun i c -> acc := !acc lor (Char.code c lxor Char.code b.[i])) a;
    !acc = 0
  end

let be32 n =
  String.init 4 (fun i -> Char.chr ((n lsr ((3 - i) * 8)) land 0xff))

let be64 n =
  String.init 8 (fun i -> Char.chr ((n lsr ((7 - i) * 8)) land 0xff))

(* Written once into an exact-size buffer: a growing Buffer would copy
   a large frame (a Build shipment) at every doubling. *)
let concat pieces =
  let b = Bytes.create (List.fold_left (fun n p -> n + 4 + String.length p) 0 pieces) in
  ignore
    (List.fold_left
       (fun off p ->
         let n = String.length p in
         Bytes.set_int32_be b off (Int32.of_int n);
         Bytes.blit_string p 0 b (off + 4) n;
         off + 4 + n)
       0 pieces);
  Bytes.unsafe_to_string b

let get_be32 s i =
  (Char.code s.[i] lsl 24) lor (Char.code s.[i + 1] lsl 16) lor (Char.code s.[i + 2] lsl 8)
  lor Char.code s.[i + 3]

(* The one walk over length prefixes: [f] sees each piece's offset and
   length in [s], in order. *)
let fold_pieces s ~off ~len f init =
  let stop = off + len in
  let rec go i acc =
    if i = stop then Some acc
    else if i + 4 > stop then None
    else begin
      let n = get_be32 s i in
      if i + 4 + n > stop then None else go (i + 4 + n) (f acc (i + 4) n)
    end
  in
  if off < 0 || len < 0 || stop > String.length s then None else go off init

let split s =
  Option.map List.rev
    (fold_pieces s ~off:0 ~len:(String.length s) (fun acc o n -> String.sub s o n :: acc) [])

let views s ~off ~len =
  Option.map List.rev (fold_pieces s ~off ~len (fun acc o n -> (o, n) :: acc) [])

type sink = string -> int -> int -> unit

type sized = { size : int; emit : sink -> unit }

let sized_string p = { size = String.length p; emit = (fun sink -> sink p 0 (String.length p)) }

(* Each length prefix is made as it is emitted: a value that is only
   emitted holds no per-piece strings between emissions. *)
let sized_concat pieces =
  { size = List.fold_left (fun n p -> n + 4 + p.size) 0 pieces;
    emit =
      (fun sink ->
        List.iter
          (fun p ->
            sink (be32 p.size) 0 4;
            p.emit sink)
          pieces) }

let sized_to_string p =
  let b = Bytes.create p.size in
  let at = ref 0 in
  p.emit (fun s off len ->
      Bytes.blit_string s off b !at len;
      at := !at + len);
  if !at <> p.size then invalid_arg "Bytesutil.sized_to_string: emitted size mismatch";
  Bytes.unsafe_to_string b
