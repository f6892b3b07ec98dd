(** Leaf pages: the one leaf-materialization representation.

    A page is the paper's leaf base node (§2.1, §4.3): a sorted immutable
    run of (key, value) items, held as two parallel arrays — the decoded
    keys every search reads and the values. Nothing else: the in-memory
    layout carries only what the search reads.

    Values stay ordinary OCaml slots: the tree's {!VALUE} contract has no
    serialization, and the paper's workloads use values as opaque tuple
    pointers anyway. Keys get their binary-comparable encoding
    ({!KEY.to_binary}, the same slices {!Bw_util.Key_codec} gives the
    trie indexes) only when a checkpoint or snapshot {!encode}s the page.

    Pages are built with {!Bw_util.Arr}'s immediate-seeded constructors:
    merge-absorbed leaves exceed 256 slots, where a young-seeded stdlib
    array constructor would force a minor collection per page build. *)

module Arr = Bw_util.Arr
module Growable = Bw_util.Growable

module type KEY = sig
  type t

  val compare : t -> t -> int
  val lower_bound_in : t array -> t -> lo:int -> hi:int -> int
  val upper_bound_in : t array -> t -> lo:int -> hi:int -> int
  val to_binary : t -> string
  val of_binary : string -> t
end

(* Comparisons a binary search over [n] sorted items performs at most:
   [floor(log2 n) + 1], or 0 for an empty range. *)
let search_cost_n n =
  if n <= 0 then 0
  else begin
    let c = ref 0 and len = ref n in
    while !len > 0 do
      incr c;
      len := !len lsr 1
    done;
    !c
  end

module type VALUE = sig
  type t

  val equal : t -> t -> bool
end

(* ---------------------------------------------------------------- *)
(* Delta slabs (§4.1)                                                *)
(* ---------------------------------------------------------------- *)

(* A leaf base's pre-allocated delta records: [cap] slots held in
   parallel arrays, allocated on the base's first data append and
   dropped with the base at consolidation. A writer claims a slot with
   one fetch-and-add on [used], fills it with plain stores and publishes
   it by swinging the mapping-table head to a record naming the slot; a
   lost CaS leaves the slot unpublished and counts it in [wasted]
   (Table 2's LPU subtracts those). Slots are written once, before the
   CaS that publishes them, and never again.

   A slot's meta word packs its kind (2 bits), its predecessor in the
   chain (the slot below it in the same run, -1 at the run's bottom;
   30 bits) and the §4.3 base offset of its key (-1 when unknown; the
   remaining 31 bits). Predecessors always sit at lower slots, so a run
   is a strictly descending walk through the arrays. *)
type ('k, 'v) slab = {
  skeys : 'k array;
  svals : 'v array;  (* the new value, or the value a delete removed *)
  solds : 'v array;
      (* an update's old value; [||] on unique-key trees, whose updates
         replace whatever the key holds *)
  smeta : int array;
  used : int Atomic.t;  (* slots claimed, overflowing claims included *)
  wasted : int Atomic.t;  (* claimed slots whose publishing CaS failed *)
}

let kind_ins = 0
let kind_del = 1
let kind_upd = 2
let meta ~kind ~pred ~offset = kind lor ((pred + 1) lsl 2) lor ((offset + 1) lsl 32)
let meta_kind m = m land 3
let meta_pred m = ((m lsr 2) land 0x3FFF_FFFF) - 1
let meta_offset m = (m lsr 32) - 1

(* A slab whose slot 0 is already claimed by its allocating writer. *)
let new_slab ~cap ~unique =
  {
    skeys = Arr.alloc cap;
    svals = Arr.alloc cap;
    solds = (if unique then [||] else Arr.alloc cap);
    smeta = Array.make cap 0;
    used = Atomic.make 1;
    wasted = Atomic.make 0;
  }

let slab_cap s = Array.length s.smeta

(* Plain stores into a claimed, not yet published slot. *)
let fill_slot s i ~kind ~pred ~offset k v vold =
  s.skeys.(i) <- k;
  s.svals.(i) <- v;
  if kind = kind_upd && Array.length s.solds > 0 then s.solds.(i) <- vold;
  s.smeta.(i) <- meta ~kind ~pred ~offset

(* The value an update at slot [i] replaced. A unique-key slab keeps no
   old values; its deletes match by key alone, so any value serves. *)
let slot_old s i = if Array.length s.solds > 0 then s.solds.(i) else s.svals.(i)

(** The read/serialize surface re-exported as [Bwtree.S.Page]: everything
    a consumer outside the tree core (checkpointing, inspection, tests)
    needs. Construction and merging stay internal to the core. *)
module type S = sig
  type key
  type value

  type t
  (** An immutable sorted run of items. Cheap to share: iterators and
      checkpoints hand out the tree's own pages without copying. *)

  val length : t -> int
  val key : t -> int -> key
  val value : t -> int -> value
  val get : t -> int -> key * value

  val lower_bound : t -> key -> int
  (** First index whose key is [>=] the argument: a binary search over
      the decoded keys. *)

  val iter_from : t -> int -> (key -> value -> unit) -> unit
  (** [iter_from t pos f] visits items [pos..length-1] in key order. *)

  val slice : t -> (key * value) array
  (** The items as a fresh array (the one leaf-materialization path). *)

  val search_cost : t -> int
  (** Comparisons one {!lower_bound} over the whole page performs at
      most ([floor(log2 n)+1]). The page counts nothing itself: this is
      the bound a caller charges to its key-compare and
      [leaf_probe_cmps] counters for each search. *)

  val encode : Buffer.t -> (Buffer.t -> value -> unit) -> t -> unit
  (** Serialize: item count, key-length table, each key's binary slice
      in index order, then each value through the caller's encoder.
      [decode] of the result re-[encode]s byte-identically. *)

  val decode : string -> pos:int ref -> value:(unit -> value) -> t
  (** Inverse of {!encode}; [value] is called once per item, in index
      order, to read each value (advancing the caller's cursor). Raises
      [Failure] on a malformed payload. *)
end

(** Internal construction/merge surface used by the tree core. *)
module type FULL = sig
  include S

  val empty : t

  val build : (key * value) array -> t
  (** From a key-sorted item array. *)

  val build_sub : (key * value) array -> pos:int -> len:int -> t

  val lower_bound_in : t -> key -> lo:int -> hi:int -> int
  (** {!lower_bound} restricted to [\[lo, hi)] — the §4.4 shortcut range.
      At most [search_cost_n (hi - lo)] comparisons. *)

  val with_inserted : t -> int -> key -> value -> t
  (** Copy-on-write single insert at a given position (the §6.3
      in-place-update ablation). *)

  type delta =
    | Ins of key * value
    | Del of key * value
    | Upd of key * value * value  (* key, old value, new value *)

  val merge_with_slab :
    t -> (key, value) slab -> top:int -> unique:bool -> t * int
  (** Apply the slab run that ends at slot [top] (walked newest first
      through the predecessor links, -1 for an empty run) to a base page
      with the multiset pending-delete semantics of §3.1 and a single
      two-way merge — no full sort; only the run's items get sorted
      (chain-bounded, insertion sort). With [unique] a delete or an
      update's old value matches its key whatever the value, as a
      unique-key slab keeps no old values. The base and the slab are
      left untouched, so the same call serves live consolidations and
      side-effect-free snapshots. Also returns how many base searches
      resolving deletes it ran, each costing at most [search_cost] of
      the base. *)

  val merge_with_deltas : t -> delta list -> t * int
  (** {!merge_with_slab} over a chain of heap delta records given newest
      first, with exact (key, value) matching. *)

  val search_cost_n : int -> int
  (** {!search_cost} for an [n]-item range. *)

  val keys : t -> key array
  (** The decoded keys, exactly [length t] slots. Read-only view for the
      probe hot path, where a hoisted array beats per-slot {!key} calls
      (non-inlined across the functor boundary). *)

  val values : t -> value array
  (** The value array, exactly [length t] slots; read-only. *)
end

module Make (K : KEY) (V : VALUE) :
  FULL with type key = K.t and type value = V.t = struct
  type key = K.t
  type value = V.t

  type t = {
    n : int;
    kcache : key array;  (* decoded keys, length n *)
    vals : value array;  (* length n *)
  }

  let empty = { n = 0; kcache = [||]; vals = [||] }
  let length t = t.n
  let key t i = t.kcache.(i)
  let value t i = t.vals.(i)
  let get t i = (t.kcache.(i), t.vals.(i))
  let keys t = t.kcache
  let values t = t.vals

  let search_cost_n = search_cost_n
  let search_cost t = search_cost_n t.n

  (* ---------------------------------------------------------------- *)
  (* Search                                                            *)
  (* ---------------------------------------------------------------- *)

  (* The key type's own search kernel ({!KEY.lower_bound_in}) over the
     decoded keys: a classic branchy binary search whose comparison is
     inline for int keys (a plain [<] on an unboxed [int array]) and a
     direct [String.compare] for strings, never a call through
     [K.compare]. On skewed read workloads the predictor learns hot
     descent paths. An n-slot search does at most [search_cost_n n]
     comparisons, which is what [search_cost] reports and callers
     charge. *)
  let lower_bound_in t k ~lo ~hi = K.lower_bound_in t.kcache k ~lo ~hi

  let lower_bound t k = lower_bound_in t k ~lo:0 ~hi:t.n

  (* ---------------------------------------------------------------- *)
  (* Iteration / materialization                                       *)
  (* ---------------------------------------------------------------- *)

  let iter_from t pos f =
    for i = max 0 pos to t.n - 1 do
      f (Array.unsafe_get t.kcache i) (Array.unsafe_get t.vals i)
    done

  let slice t = Arr.init t.n (fun i -> (t.kcache.(i), t.vals.(i)))

  (* ---------------------------------------------------------------- *)
  (* Construction                                                      *)
  (* ---------------------------------------------------------------- *)

  let build_sub items ~pos ~len =
    if len = 0 then empty
    else
      {
        n = len;
        kcache = Arr.init len (fun i -> fst (Array.unsafe_get items (pos + i)));
        vals = Arr.init len (fun i -> snd (Array.unsafe_get items (pos + i)));
      }

  let build items = build_sub items ~pos:0 ~len:(Array.length items)

  let with_inserted t pos k v =
    let n = t.n in
    let kcache = Arr.alloc (n + 1) and vals = Arr.alloc (n + 1) in
    Array.blit t.kcache 0 kcache 0 pos;
    Array.blit t.vals 0 vals 0 pos;
    kcache.(pos) <- k;
    vals.(pos) <- v;
    Array.blit t.kcache pos kcache (pos + 1) (n - pos);
    Array.blit t.vals pos vals (pos + 1) (n - pos);
    { n = n + 1; kcache; vals }

  (* ---------------------------------------------------------------- *)
  (* Consolidation merge                                               *)
  (* ---------------------------------------------------------------- *)

  type delta =
    | Ins of key * value
    | Del of key * value
    | Upd of key * value * value

  let merge_with_slab base s ~top ~unique =
    (* 1. newest-to-oldest walk with multiset pending-delete semantics: a
       delete is *pending* and is consumed by the next-older insert of
       the same pair, or failing that by a base occurrence (§3.1 — the
       multiset variant, because an update whose old and new values are
       equal makes pairs repeat across chain and base). *)
    let pres : (key * value) Growable.t = Growable.create () in
    let dels : (key * value) Growable.t = Growable.create () in
    let same v' v = unique || V.equal v' v in
    let take_pending k v =
      let nd = Growable.length dels in
      let rec go i =
        if i >= nd then false
        else
          let k', v' = Growable.get dels i in
          if K.compare k' k = 0 && same v' v then begin
            Growable.remove_at dels i;
            true
          end
          else go (i + 1)
      in
      go 0
    in
    let i = ref top in
    while !i >= 0 do
      let m = s.smeta.(!i) in
      let k = s.skeys.(!i) and v = s.svals.(!i) in
      let kind = meta_kind m in
      if kind = kind_del then Growable.push dels (k, v)
      else begin
        if not (take_pending k v) then Growable.push pres (k, v);
        if kind = kind_upd then Growable.push dels (k, slot_old s !i)
      end;
      i := meta_pred m
    done;
    let nb = base.n in
    (* 2. resolve surviving deletes against base occurrences; deletes
       that resolve nowhere refer to delta-only items already absorbed
       by the pending set above and are ignored *)
    let consumed = Array.make (max 1 nb) false in
    let n_dead = ref 0 in
    Growable.iter
      (fun (k, v) ->
        let i = ref (lower_bound_in base k ~lo:0 ~hi:nb) in
        let stop = ref false in
        while
          (not !stop) && !i < nb && K.compare base.kcache.(!i) k = 0
        do
          if (not consumed.(!i)) && same base.vals.(!i) v then begin
            consumed.(!i) <- true;
            incr n_dead;
            stop := true
          end
          else incr i
        done)
      dels;
    (* 3. the chain's surviving items, key-sorted; stable insertion sort
       (chain-bounded input) keeps newest-first order within a key *)
    let pa = Growable.to_array pres in
    let np = Array.length pa in
    for i = 1 to np - 1 do
      let x = pa.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && K.compare (fst pa.(!j)) (fst x) > 0 do
        pa.(!j + 1) <- pa.(!j);
        decr j
      done;
      pa.(!j + 1) <- x
    done;
    let nout = nb - !n_dead + np in
    if nout = 0 then (empty, Growable.length dels)
    else begin
      (* 4. single two-way merge. Delta items are emitted before base
         items with an equal key (they are newer — matches the probe
         walk, which reports delta values ahead of base values). *)
      let okc = Arr.alloc nout and ov = Arr.alloc nout in
      let oi = ref 0 and bi = ref 0 and pi = ref 0 in
      while !bi < nb || !pi < np do
        while !bi < nb && consumed.(!bi) do
          incr bi
        done;
        let take_delta =
          !pi < np
          && (!bi >= nb
             || K.compare (fst pa.(!pi)) base.kcache.(!bi) <= 0)
        in
        if take_delta then begin
          let k, v = pa.(!pi) in
          okc.(!oi) <- k;
          ov.(!oi) <- v;
          incr oi;
          incr pi
        end
        else if !bi < nb then begin
          okc.(!oi) <- base.kcache.(!bi);
          ov.(!oi) <- base.vals.(!bi);
          incr oi;
          incr bi
        end
      done;
      assert (!oi = nout);
      ({ n = nout; kcache = okc; vals = ov }, Growable.length dels)
    end

  (* A heap chain becomes a private slab: the newest record in the top
     slot, each slot's predecessor the one below it. *)
  let merge_with_deltas base deltas =
    let n = List.length deltas in
    let s = new_slab ~cap:(max 1 n) ~unique:false in
    List.iteri
      (fun j d ->
        let i = n - 1 - j in
        let fill ~kind k v vold =
          fill_slot s i ~kind ~pred:(i - 1) ~offset:(-1) k v vold
        in
        match d with
        | Ins (k, v) -> fill ~kind:kind_ins k v v
        | Del (k, v) -> fill ~kind:kind_del k v v
        | Upd (k, vold, vnew) -> fill ~kind:kind_upd k vnew vold)
      deltas;
    merge_with_slab base s ~top:(n - 1) ~unique:false

  (* ---------------------------------------------------------------- *)
  (* Serialization: the on-disk page format                            *)
  (* ---------------------------------------------------------------- *)

  (* [n : int64le] [flag : byte, 1 = all keys 8 bytes]
     [unless flag: n x len : int64le] [key slices, index order]
     [values, caller-encoded]. Integer fields match Pagestore.Codec's
     int64-LE convention. An empty page has flag 0 and no table. *)

  let add_i64 buf v = Buffer.add_int64_le buf (Int64.of_int v)

  let encode buf encode_value t =
    let bins = Arr.init t.n (fun i -> K.to_binary t.kcache.(i)) in
    let fixed8 = t.n > 0 && Array.for_all (fun s -> String.length s = 8) bins in
    add_i64 buf t.n;
    Buffer.add_char buf (if fixed8 then '\001' else '\000');
    if not fixed8 then Array.iter (fun s -> add_i64 buf (String.length s)) bins;
    Array.iter (Buffer.add_string buf) bins;
    for i = 0 to t.n - 1 do
      encode_value buf t.vals.(i)
    done

  (* Canonical like [Pagestore.Codec.decode_int]: a field outside the
     63-bit int range is refused, not wrapped. *)
  let get_i64 s ~pos =
    if !pos + 8 > String.length s then failwith "Leaf_page.decode: truncated";
    let v64 = String.get_int64_le s !pos in
    let v = Int64.to_int v64 in
    if not (Int64.equal (Int64.of_int v) v64) then
      failwith "Leaf_page.decode: int out of range";
    pos := !pos + 8;
    v

  (* [K.of_binary] may reject a slice with any exception (int keys raise
     [Invalid_argument] on a non-8-byte slice); the decoder's contract is
     [Failure] only, which is what the store's generation fallback
     catches. *)
  let key_of_slice payload off len =
    match K.of_binary (String.sub payload off len) with
    | k -> k
    | exception _ -> failwith "Leaf_page.decode: bad key"

  let decode payload ~pos ~value =
    let plen = String.length payload in
    let n = get_i64 payload ~pos in
    if n < 0 || n > plen then failwith "Leaf_page.decode: bad item count";
    if !pos >= plen then failwith "Leaf_page.decode: truncated";
    let flag = payload.[!pos] in
    incr pos;
    let fixed8 =
      match flag with
      | '\001' -> true
      | '\000' -> false
      | _ -> failwith "Leaf_page.decode: bad flag"
    in
    if n = 0 then empty
    else begin
      let lens =
        if fixed8 then Array.make n 8
        else
          Array.init n (fun _ ->
              let l = get_i64 payload ~pos in
              if l < 0 || l > plen then
                failwith "Leaf_page.decode: bad key length";
              l)
      in
      let total = Array.fold_left ( + ) 0 lens in
      if !pos + total > plen then failwith "Leaf_page.decode: truncated";
      let off = ref !pos in
      let kcache =
        Arr.init n (fun i ->
            let l = Array.unsafe_get lens i in
            let k = key_of_slice payload !off l in
            off := !off + l;
            k)
      in
      pos := !pos + total;
      let vals = Arr.init n (fun _ -> value ()) in
      { n; kcache; vals }
    end
end
