(* Table-driven reflected CRC-32, polynomial 0xEDB88320, eight bytes
   per step (slice-by-8). The running value is kept post-conditioned
   (xored with 0xFFFFFFFF) so that 0 is the neutral seed and [update]
   composes; this is the same convention zlib's crc32() uses.

   [tables] holds eight 256-entry tables back to back. Table 0 is the
   byte-at-a-time table; entry n of table k is entry n of table k-1
   advanced over one more zero byte. One step xors the running value
   into the next four bytes and folds all eight with one lookup each;
   the bytes left over go through table 0 one at a time. *)

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    let prev = t.(i - 256) in
    t.(i) <- (prev lsr 8) lxor t.(prev land 0xFF)
  done;
  t

(* Every index is masked to a byte: the lookups stay in bounds. *)
let[@inline] lookup k n = Array.unsafe_get tables ((k lsl 8) lor n)
let[@inline] u32 s i = Int32.to_int (String.get_int32_le s i) land 0xFFFFFFFF

let update crc s pos len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.update";
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref pos in
  let last8 = pos + len - 8 in
  while !i <= last8 do
    let j = !i in
    let one = !c lxor u32 s j and two = u32 s (j + 4) in
    c :=
      lookup 7 (one land 0xFF)
      lxor lookup 6 ((one lsr 8) land 0xFF)
      lxor lookup 5 ((one lsr 16) land 0xFF)
      lxor lookup 4 (one lsr 24)
      lxor lookup 3 (two land 0xFF)
      lxor lookup 2 ((two lsr 8) land 0xFF)
      lxor lookup 1 ((two lsr 16) land 0xFF)
      lxor lookup 0 (two lsr 24);
    i := j + 8
  done;
  for j = !i to pos + len - 1 do
    c := lookup 0 ((!c lxor Char.code (String.unsafe_get s j)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let string s = update 0 s 0 (String.length s)
