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
let slot_hash s off =
  let b i = Char.code (String.unsafe_get s (off + i)) in
  (b 0 lsl 48) lor (b 1 lsl 40) lor (b 2 lsl 32) lor (b 3 lsl 24)
  lor (b 4 lsl 16) lor (b 5 lsl 8) lor b 6

let label_matches t slot s off =
  let base = slot * record_len in
  let rec go i =
    i = label_len
    || (Char.equal (Bytes.unsafe_get t.slots (base + i)) (String.unsafe_get s (off + i))
        && go (i + 1))
  in
  go 0

(* First slot in the probe sequence of the label at [s.[off]] that is
   free or already holds it. *)
let probe t s off =
  let rec go i =
    if Bytes.unsafe_get t.used i = free || label_matches t i s off then i
    else go ((i + 1) land t.mask)
  in
  go (slot_hash s off land t.mask)

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
   return its arena offset, or -1 when the label is already held. *)
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

let install t records =
  List.iter
    (fun r ->
      if String.length r mod record_len <> 0 then
        invalid_arg "Enc_index.install: records must be whole 32-byte l ‖ d records")
    records;
  Bytes.iteri (fun i mark -> if mark = latest then Bytes.unsafe_set t.used i held) t.used;
  reserve t (List.fold_left (fun n r -> n + (String.length r / record_len)) 0 records);
  List.iter
    (fun r ->
      for k = 0 to (String.length r / record_len) - 1 do
        let off = k * record_len in
        let base = claim t r off latest in
        if base < 0 then invalid_arg "Enc_index.install: position already occupied";
        Bytes.blit_string r off t.slots base record_len
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
