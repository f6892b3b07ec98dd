let of_int k =
  (* Flip the sign bit so negative ints sort below non-negative ones under
     unsigned byte-wise comparison. *)
  let v = Int64.logxor (Int64.of_int k) Int64.min_int in
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 v;
  Bytes.unsafe_to_string b

let to_int s =
  if String.length s <> 8 then invalid_arg "Key_codec.to_int: need 8 bytes";
  let v = Int64.logxor (String.get_int64_be s 0) Int64.min_int in
  let k = Int64.to_int v in
  (* 8-byte slices outside the 63-bit range encode no int: refuse them
     rather than let [Int64.to_int] wrap two slices onto one key *)
  if not (Int64.equal (Int64.of_int k) v) then
    invalid_arg "Key_codec.to_int: out of int range";
  k

let int_at_least s =
  (* Scan start keys are lower bounds over the binary key space, not
     keys: range boundaries and continuation cursors (floor_binary of a
     slice, last_key ^ "\000") are rarely exactly 8 bytes. An 8-byte
     string >= a longer [s] must exceed its first 8 bytes; a shorter [s]
     zero-pads to its own floor. *)
  let u = ref 0L in
  for j = 0 to 7 do
    let byte = if j < String.length s then Char.code s.[j] else 0 in
    u := Int64.logor (Int64.shift_left !u 8) (Int64.of_int byte)
  done;
  let u = !u in
  (* OCaml's 63-bit ints cover only the middle half of the 64-bit key
     space, so clamp: a bound below enc(min_int) floors to min_int, one
     above enc(max_int) has no int at or above it. (Int64.to_int alone
     would silently wrap both ends.) *)
  let clamp u =
    let k64 = Int64.logxor u Int64.min_int in
    if Int64.compare k64 (Int64.of_int min_int) < 0 then Some min_int
    else if Int64.compare k64 (Int64.of_int max_int) > 0 then None
    else Some (Int64.to_int k64)
  in
  if String.length s <= 8 then clamp u
  else if Int64.equal u (-1L) then None
  else clamp (Int64.add u 1L)

let of_string s = s

let slice64 s i =
  let off = i * 8 in
  let len = String.length s in
  let v = ref 0L in
  for j = 0 to 7 do
    let byte = if off + j < len then Char.code s.[off + j] else 0 in
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int byte)
  done;
  !v

let slice_count s =
  let len = String.length s in
  if len = 0 then 1 else (len + 7) / 8
