(* Open-addressing hash table specialised to the index's fixed shape:
   16-byte PRF positions mapped to 16-byte masked payloads. Entries live
   inline in one contiguous arena (32 bytes per slot, label then
   payload) with a one-byte-per-slot occupancy vector — no per-entry
   boxing, no string headers, and the slot hash is just the label's own
   leading bytes (positions are PRF outputs, already uniform). A
   shipment arrives in the slot layout itself (packed [l ‖ d] records),
   so installing one is a probe and a 32-byte blit per record. *)

let label_len = 16
let payload_len = 16
let record_len = label_len + payload_len

(* Occupancy bytes. [latest] marks the slots of the most recent
   {!install}: [Stale_results] answers as if they were free. *)
let free = '\000'
let held = '\001'
let latest = '\002'

type t = {
  mutable slots : Bytes.t; (* capacity * record_len arena *)
  mutable used : Bytes.t;  (* capacity occupancy bytes *)
  mutable mask : int;      (* capacity - 1; capacity is a power of two *)
  mutable count : int;
}

let initial_capacity = 1024

let create () =
  { slots = Bytes.create (initial_capacity * record_len);
    used = Bytes.make initial_capacity free;
    mask = initial_capacity - 1;
    count = 0 }

(* 56 bits of the (uniform) label at [s.[off]] — enough for any
   realistic capacity. *)
let slot_hash s off = Int64.to_int (Int64.shift_right_logical (String.get_int64_be s off) 8)

(* Whether the labels at [a.[i]] and [b.[j]] are equal. The comparison
   at [int64] compiles to a word compare, so nothing is boxed. *)
let labels_equal a i b j =
  (String.get_int64_ne a i : int64) = String.get_int64_ne b j
  && (String.get_int64_ne a (i + 8) : int64) = String.get_int64_ne b (j + 8)

(* First slot from [i] on in the probe sequence of the label at
   [s.[off]] that is free or already holds it. Top-level, like every
   loop on the install path, so a probe allocates no closure. *)
let rec probe_from t s off i =
  if
    Bytes.unsafe_get t.used i = free
    || labels_equal (Bytes.unsafe_to_string t.slots) (i * record_len) s off
  then i
  else probe_from t s off ((i + 1) land t.mask)

let probe t s off = probe_from t s off (slot_hash s off land t.mask)

(* Rehash into [cap] slots; each record keeps its occupancy mark. *)
let resize t cap =
  let old_slots = Bytes.unsafe_to_string t.slots and old_used = t.used in
  t.slots <- Bytes.create (cap * record_len);
  t.used <- Bytes.make cap free;
  t.mask <- cap - 1;
  Bytes.iteri
    (fun i mark ->
      if mark <> free then begin
        let base = i * record_len in
        let slot = probe t old_slots base in
        Bytes.blit_string old_slots base t.slots (slot * record_len) record_len;
        Bytes.unsafe_set t.used slot mark
      end)
    old_used

(* Room for [n] more entries under a 3/4 load factor (so probe chains
   stay short), in at most one resize. *)
let reserve t n =
  let cap = ref (t.mask + 1) in
  while 4 * (t.count + n) > 3 * !cap do
    cap := 2 * !cap
  done;
  if !cap > t.mask + 1 then resize t !cap

(* Occupy the free slot for the label at [s.[off]] with [mark] and
   return its arena offset, or -1 when the label is already held
   ([install] has ruled that out before it claims). *)
let claim t s off mark =
  let slot = probe t s off in
  if Bytes.unsafe_get t.used slot <> free then -1
  else begin
    Bytes.unsafe_set t.used slot mark;
    t.count <- t.count + 1;
    slot * record_len
  end

let put t ~l ~d =
  if String.length l <> label_len then invalid_arg "Enc_index.put: position must be 16 bytes";
  if String.length d <> payload_len then invalid_arg "Enc_index.put: payload must be 16 bytes";
  reserve t 1;
  let base = claim t l 0 held in
  if base < 0 then invalid_arg "Enc_index.put: position already occupied";
  Bytes.blit_string l 0 t.slots base label_len;
  Bytes.blit_string d 0 t.slots (base + label_len) payload_len

(* Refuse, before anything changes, a shipment that holds a position the
   index already holds or one position twice. Each record's probe into
   the arena finds a free slot or the position's holder. A transient
   table of the shipment's own records, open-addressed on the same
   label hash, finds a repeat: 4 bytes per slot, each record named by
   its number [g] across the shipment's strings ([first.(i)] numbers the
   first record of string [i]), stored as [g + 1] with 0 for an empty
   slot. *)
let check_fresh t records =
  let rs = Array.of_list records in
  let n = Array.length rs in
  let first = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    first.(i + 1) <- first.(i) + (String.length rs.(i) / record_len)
  done;
  let size = ref 16 in
  while 3 * !size < 4 * first.(n) do
    size := 2 * !size
  done;
  let mask = !size - 1 in
  let seen = Bytes.make (4 * !size) '\000' in
  (* The string holding record [g]: the last [i] in [lo, hi) with
     [first.(i) <= g]. *)
  let rec holder g lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if first.(mid) <= g then holder g mid hi else holder g lo mid
  in
  let rec put r off g h =
    match Int32.to_int (Bytes.get_int32_le seen (4 * h)) with
    | 0 -> Bytes.set_int32_le seen (4 * h) (Int32.of_int (g + 1))
    | e ->
      let i = holder (e - 1) 0 n in
      if labels_equal rs.(i) ((e - 1 - first.(i)) * record_len) r off then
        invalid_arg "Enc_index.install: position repeated in the shipment"
      else put r off g ((h + 1) land mask)
  in
  for i = 0 to n - 1 do
    let r = rs.(i) in
    for k = 0 to first.(i + 1) - first.(i) - 1 do
      let off = k * record_len in
      if Bytes.unsafe_get t.used (probe t r off) <> free then
        invalid_arg "Enc_index.install: position already occupied";
      put r off (first.(i) + k) (slot_hash r off land mask)
    done
  done

let install t records =
  List.iter
    (fun r ->
      if String.length r mod record_len <> 0 then
        invalid_arg "Enc_index.install: records must be whole 32-byte l ‖ d records")
    records;
  check_fresh t records;
  Bytes.iteri (fun i mark -> if mark = latest then Bytes.unsafe_set t.used i held) t.used;
  reserve t (List.fold_left (fun n r -> n + (String.length r / record_len)) 0 records);
  List.iter
    (fun r ->
      for k = 0 to (String.length r / record_len) - 1 do
        let off = k * record_len in
        Bytes.blit_string r off t.slots (claim t r off latest) record_len
      done)
    records

(* The payload under [l] when its slot's mark passes [visible]. *)
let lookup t l visible =
  if String.length l <> label_len then None
  else begin
    let slot = probe t l 0 in
    if visible (Bytes.unsafe_get t.used slot) then
      Some (Bytes.sub_string t.slots ((slot * record_len) + label_len) payload_len)
    else None
  end

let find t l = lookup t l (fun mark -> mark <> free)
let find_before_latest t l = lookup t l (fun mark -> mark = held)

let entry_count t = t.count

let size_bytes t = t.count * record_len

let capacity_bytes t = Bytes.length t.slots + Bytes.length t.used

let iter f t =
  Bytes.iteri
    (fun i mark ->
      if mark <> free then begin
        let base = i * record_len in
        f (Bytes.sub_string t.slots base label_len)
          (Bytes.sub_string t.slots (base + label_len) payload_len)
      end)
    t.used

let sorted_records t =
  let occupied = Array.make t.count 0 and k = ref 0 in
  Bytes.iteri
    (fun i mark ->
      if mark <> free then begin
        occupied.(!k) <- i * record_len;
        incr k
      end)
    t.used;
  let arena = t.slots in
  let compare_labels a b =
    let rec go i =
      if i = label_len then 0
      else
        let c = Char.compare (Bytes.unsafe_get arena (a + i)) (Bytes.unsafe_get arena (b + i)) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  in
  Array.sort compare_labels occupied;
  let out = Bytes.create (t.count * record_len) in
  Array.iteri (fun k base -> Bytes.blit arena base out (k * record_len) record_len) occupied;
  Bytes.unsafe_to_string out
