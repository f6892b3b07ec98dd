open Index_iface

(* A key's slice is its position in the unsigned 64-bit coordinate
   space: the first 8 bytes of its binary-comparable encoding, read
   big-endian and zero-padded past the end. Lexicographic key order and
   unsigned slice order agree on the first 8 bytes, so ranges of slices
   are ranges of keys, total over all keys and order-consistent. *)
module Part = struct
  (* The partitioned slice interval starts at [lo]; [stride] is
     ceil(range / n) so that lo + n * stride covers the whole interval:
     every in-range slice value minus [lo], divided by the stride, lands
     in [0, n). Slices below [lo] belong to shard 0 and slices at or
     past the end to shard n-1, so out-of-range keys still route
     consistently with key order. Unused (and 0) when n = 1. *)
  type t = { n : int; lo : int64; stride : int64 }

  let slice_of_binary s = Bw_util.Key_codec.slice64 s 0

  (* Key_codec.of_int writes the 8-byte big-endian form of
     [k lxor min_int64]; its first slice read back unsigned is exactly
     that value, so int keys route without encoding. *)
  let slice_of_int k = Int64.logxor (Int64.of_int k) Int64.min_int

  (* [range] is the interval width as an unsigned 64-bit count, with 0
     meaning the full 2^64 slice space (which wraps to 0). *)
  let of_range n lo range =
    let stride =
      if n = 1 then 0L
      else if range = 0L then
        Int64.add (Int64.unsigned_div Int64.minus_one (Int64.of_int n)) 1L
      else
        (* floor((range-1)/n) + 1 = ceil(range/n) without overflow *)
        Int64.add
          (Int64.unsigned_div (Int64.sub range 1L) (Int64.of_int n))
          1L
    in
    { n; lo; stride }

  let make ?(lo = "") ?hi n =
    if n < 1 then invalid_arg "Bw_shard.Part.make: shard count < 1";
    let lo_s = slice_of_binary lo in
    let range =
      match hi with
      | None -> Int64.neg lo_s (* 2^64 - lo; wraps to 0 when lo = "" *)
      | Some hi ->
          let hi_s = slice_of_binary hi in
          if Int64.unsigned_compare hi_s lo_s <= 0 then
            invalid_arg "Bw_shard.Part.make: hi must be > lo";
          Int64.sub hi_s lo_s
    in
    of_range n lo_s range

  (* OCaml's 63-bit ints occupy only the middle half of the slice
     space, so a full-space partition would leave half the shards
     empty; partition the inclusive [lo, hi] int range instead (the
     default covers every int; its width 2^63 is the bit pattern of
     Int64.min_int). *)
  let make_int ?(lo = min_int) ?(hi = max_int) n =
    if n < 1 then invalid_arg "Bw_shard.Part.make_int: shard count < 1";
    if lo >= hi then invalid_arg "Bw_shard.Part.make_int: hi must be > lo";
    of_range n (slice_of_int lo)
      (Int64.add (Int64.sub (slice_of_int hi) (slice_of_int lo)) 1L)

  let count t = t.n

  let of_slice t (u : int64) =
    if t.n = 1 then 0
    else if Int64.unsigned_compare u t.lo < 0 then 0
    else
      let s = Int64.to_int (Int64.unsigned_div (Int64.sub u t.lo) t.stride) in
      if s >= t.n then t.n - 1 else s

  let floor_slice t i = Int64.add t.lo (Int64.mul (Int64.of_int i) t.stride)
  let shard_of_binary t s = of_slice t (slice_of_binary s)
  let shard_of_int t k = of_slice t (slice_of_int k)

  (* The smallest binary key at or above shard [i]'s floor slice: its
     8-byte big-endian image with trailing zero bytes stripped, so short
     keys above the boundary still compare >= it. Every key below the
     floor has a smaller slice and vice versa — the floor exactly
     partitions the key space, which is what scan continuation needs. *)
  let floor_binary t i =
    if i <= 0 then ""
    else
      let u = floor_slice t i in
      if u = 0L then ""
      else begin
        let b = Bytes.create 8 in
        Bytes.set_int64_be b 0 u;
        let len = ref 8 in
        while !len > 0 && Bytes.get b (!len - 1) = '\000' do
          decr len
        done;
        Bytes.sub_string b 0 !len
      end

  (* The smallest int key at or above shard [i]'s floor slice, clamped
     to the int range. *)
  let floor_int t i =
    if i <= 0 then min_int
    else
      let k64 = Int64.logxor (floor_slice t i) Int64.min_int in
      if Int64.compare k64 (Int64.of_int min_int) < 0 then min_int
      else if Int64.compare k64 (Int64.of_int max_int) > 0 then max_int
      else Int64.to_int k64
end

let route ?name ~(shard_of : 'k -> int) ~(floor_of : int -> 'k)
    (shards : 'k driver array) : 'k driver =
  let n_shards = Array.length shards in
  if n_shards = 0 then invalid_arg "Bw_shard.route: empty forest";
  let name =
    match name with
    | Some nm -> nm
    | None -> Printf.sprintf "%s[%d shards]" shards.(0).name n_shards
  in
  let pick k = shards.(shard_of k) in
  let each f = Array.iter f shards in
  {
    name;
    insert = (fun ~tid k v -> (pick k).insert ~tid k v);
    read = (fun ~tid k -> (pick k).read ~tid k);
    update = (fun ~tid k v -> (pick k).update ~tid k v);
    remove = (fun ~tid k -> (pick k).remove ~tid k);
    scan =
      (fun ~tid k ~n visit ->
        if n <= 0 then 0
        else begin
          (* shards partition the key space in key order: finish the
             start key's shard, then continue from each successor's
             floor until the budget is met or the forest is exhausted *)
          let got = ref 0 in
          let s = ref (shard_of k) in
          let start = ref k in
          while !got < n && !s < n_shards do
            got := !got + shards.(!s).scan ~tid !start ~n:(n - !got) visit;
            incr s;
            if !s < n_shards then start := floor_of !s
          done;
          !got
        end);
    batch =
      Some
        (fun ~tid ops ->
          let n_ops = Array.length ops in
          if n_shards = 1 then exec_batch shards.(0) ~tid ops
          else begin
            (* one routing pass records each op's shard and per-shard
               position, then the gathered sub-batches execute through
               each shard's own batch path (or per-op fallback) and the
               results scatter back to submission order — within one
               shard the sub-batch keeps submission order, so per-key
               semantics match the unsharded tree. Sub-batches and the
               scatter array are batch-sized, so they are built through
               [Bw_util.Arr] (stdlib constructors force a minor
               collection per >256-element array seeded with a young
               block). *)
            let shard = Array.make n_ops 0 in
            let count = Array.make n_shards 0 in
            for i = 0 to n_ops - 1 do
              let s = shard_of (batch_op_key ops.(i)) in
              shard.(i) <- s;
              count.(s) <- count.(s) + 1
            done;
            let subs =
              Array.init n_shards (fun s ->
                  if count.(s) = 0 then [||]
                  else Bw_util.Arr.make count.(s) ops.(0))
            in
            let pos = Array.make n_ops 0 in
            let fill = Array.make n_shards 0 in
            for i = 0 to n_ops - 1 do
              let s = shard.(i) in
              subs.(s).(fill.(s)) <- ops.(i);
              pos.(i) <- fill.(s);
              fill.(s) <- fill.(s) + 1
            done;
            let sub_results =
              Array.mapi
                (fun s sub ->
                  if Array.length sub = 0 then [||]
                  else exec_batch shards.(s) ~tid sub)
                subs
            in
            Bw_util.Arr.init n_ops (fun i ->
                sub_results.(shard.(i)).(pos.(i)))
          end);
    start_aux = (fun () -> each (fun d -> d.start_aux ()));
    stop_aux = (fun () -> each (fun d -> d.stop_aux ()));
    thread_done = (fun ~tid -> each (fun d -> d.thread_done ~tid));
    memory_words =
      (fun () ->
        Array.fold_left (fun acc d -> acc + d.memory_words ()) 0 shards);
  }

let check_arity part shards =
  if Part.count part <> Array.length shards then
    invalid_arg
      (Printf.sprintf "Bw_shard.route: partition has %d shards, got %d drivers"
         (Part.count part) (Array.length shards))

let route_int ?name part shards =
  check_arity part shards;
  route ?name ~shard_of:(Part.shard_of_int part)
    ~floor_of:(Part.floor_int part) shards

let route_binary ?name part shards =
  check_arity part shards;
  route ?name ~shard_of:(Part.shard_of_binary part)
    ~floor_of:(Part.floor_binary part) shards
