(* A chunk slot's static type. Chunks hold cast ['a] element pointers,
   plus [vacant] in every slot never stored to. A non-float block type
   makes the compiler read and write chunks as plain pointer arrays: no
   flat-float-array test on {!get}'s load. *)
type slot = Vacant of unit

(* The sentinel of never-set slots. Allocated here and never handed out,
   so it is physically distinct from every element a caller can pass:
   no CaS expectation matches it. *)
let vacant = Vacant (Sys.opaque_identity ())

let to_slot : 'a -> slot = Obj.magic
let of_slot : slot -> 'a = Obj.magic

(* The runtime's field CaS ([caml_atomic_cas_field]) on slot [i] of a
   chunk: what [Atomic.compare_and_set] does to a one-field block. *)
external cas_slot : slot array -> int -> slot -> slot -> bool
  = "bw_mapping_table_cas"
[@@noalloc]

type 'a t = {
  dummy : 'a;
  chunk_bits : int;
  chunk_mask : int;
  max_chunks : int;  (* 2^dir_bits *)
  (* The directory: a plain array of chunks, replaced wholesale by
     copy-and-CaS whenever a chunk is faulted in. A hole (a slot below
     the directory's length whose chunk was never touched) holds the
     shared empty array [[||]]. Chunks are shared between directory
     versions, so a slot store is visible through every later copy. *)
  dir : slot array array Atomic.t;
  next_id : int Atomic.t;
  free : int list Atomic.t;
  chunks : int Atomic.t;
  obs : Bw_obs.sink;
}

let create ?(chunk_bits = 10) ?(dir_bits = 18) ?(obs = Bw_obs.Null) ~dummy ()
    =
  if chunk_bits < 1 || chunk_bits > 24 then
    invalid_arg "Mapping_table.create: chunk_bits out of range";
  if dir_bits < 1 || dir_bits > 20 then
    invalid_arg "Mapping_table.create: dir_bits out of range";
  let t =
    {
      dummy;
      chunk_bits;
      chunk_mask = (1 lsl chunk_bits) - 1;
      max_chunks = 1 lsl dir_bits;
      dir = Atomic.make [||];
      next_id = Atomic.make 0;
      free = Atomic.make [];
      chunks = Atomic.make 0;
      obs;
    }
  in
  Bw_obs.register_gauge obs Bw_obs.G_mt_chunks (fun () -> Atomic.get t.chunks);
  Bw_obs.register_gauge obs Bw_obs.G_mt_free_ids (fun () ->
      List.length (Atomic.get t.free));
  t

let capacity t = t.max_chunks lsl t.chunk_bits

let out_of_range () = invalid_arg "Mapping_table: id out of range"

(* [id]'s chunk index, range-checked: one comparison, as a negative id
   shifts to an index far above [max_chunks]. *)
let chunk_index t id =
  let ci = id lsr t.chunk_bits in
  if ci >= t.max_chunks then out_of_range ();
  ci

(* The chunk covering [id] as currently published, or the empty array
   when it is a hole or beyond the directory. Never allocates. *)
let chunk t id =
  let ci = chunk_index t id in
  let d = Atomic.get t.dir in
  if ci < Array.length d then Array.unsafe_get d ci else [||]

(* The chunk covering [id], faulted in if it is a hole: copy the
   directory (extended to reach it) with a fresh all-[vacant] chunk in
   its slot and CaS the copy in. A failed CaS means another thread
   faulted some chunk first; retry on its directory, reusing our fresh
   chunk unless it installed the one we want — as the OS hands a single
   physical page to racing faulting threads. *)
let chunk_for t id =
  let ci = id lsr t.chunk_bits in
  let rec go fresh =
    let d = Atomic.get t.dir in
    let n = Array.length d in
    if ci < n && Array.length (Array.unsafe_get d ci) > 0 then
      Array.unsafe_get d ci
    else begin
      let fresh =
        if Array.length fresh > 0 then fresh
        else Array.make (1 lsl t.chunk_bits) vacant
      in
      let d' = Array.make (max n (ci + 1)) [||] in
      Array.blit d 0 d' 0 n;
      d'.(ci) <- fresh;
      if Atomic.compare_and_set t.dir d d' then begin
        ignore (Atomic.fetch_and_add t.chunks 1);
        if Bw_obs.enabled t.obs then begin
          (* a chunk fault can come from any thread, including foreground
             readers with no spare budget — anon context keeps it simple *)
          Bw_obs.incr_anon t.obs Bw_obs.C_mt_growths;
          Bw_obs.event_anon t.obs Bw_obs.Ev_mt_grow ~a:ci
            ~b:(Atomic.get t.chunks)
        end;
        fresh
      end
      else go fresh
    end
  in
  go [||]

(* One plain load of the slot, not an [Atomic.get]. It races only
   with CaS and [set] stores of whole words, so it returns the old or
   the new pointer, never a torn one. A node is fully built before the
   CaS that publishes it, and OCaml 5 makes a block's initialising
   writes visible to every domain that loads a pointer to it. The
   lookup is [chunk]'s, written out: every node visit runs it, and
   [chunk] is not inlined. *)
let get t id =
  let ci = id lsr t.chunk_bits in
  if ci >= t.max_chunks then out_of_range ();
  let d = Atomic.get t.dir in
  if ci >= Array.length d then t.dummy
  else
    let c = Array.unsafe_get d ci and j = id land t.chunk_mask in
    if j >= Array.length c then t.dummy
    else
      let s = Array.unsafe_get c j in
      if s == vacant then t.dummy else of_slot s

let cas t id ~expect ~repl =
  let c = chunk t id and j = id land t.chunk_mask in
  j < Array.length c && cas_slot c j (to_slot expect) (to_slot repl)

let cas_unsafe t id ~expect ~repl =
  let c = chunk t id and j = id land t.chunk_mask in
  j < Array.length c
  && Array.unsafe_get c j == to_slot expect
  && begin
       Array.unsafe_set c j (to_slot repl);
       true
     end

(* A plain store. Safe: only the id's owner (its allocator, or a
   single-threaded [set]) stores to a slot outside a CaS, and the id
   reaches other threads only through a later CaS that publishes it,
   which orders this store before their reads. *)
let set t id v =
  ignore (chunk_index t id : int);
  Array.unsafe_set (chunk_for t id) (id land t.chunk_mask) (to_slot v)

let rec pop_free t =
  match Atomic.get t.free with
  | [] -> None
  | id :: rest as old ->
      if Atomic.compare_and_set t.free old rest then Some id else pop_free t

let allocate t v =
  let id =
    match pop_free t with
    | Some id -> id
    | None -> Atomic.fetch_and_add t.next_id 1
  in
  set t id v;
  id

let free_id t id =
  (* The dummy store must happen exactly once, before the id is published
     on the free list: once the push below succeeds, a racing [allocate]
     may pop [id] and install a live pointer immediately, and a dummy
     store re-executed on a CaS retry would stomp it. *)
  set t id t.dummy;
  let rec push () =
    let old = Atomic.get t.free in
    if not (Atomic.compare_and_set t.free old (id :: old)) then push ()
  in
  push ()

let chunks_allocated t = Atomic.get t.chunks
let high_water t = Atomic.get t.next_id
let free_list_length t = List.length (Atomic.get t.free)
let rebuild_capacity_hint t = high_water t - free_list_length t
