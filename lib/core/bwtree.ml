(** The OpenBw-Tree: a lock-free B-link tree with delta chains and a
    mapping-table indirection layer, after "Building a Bw-Tree Takes More
    Than Just Buzz Words" (SIGMOD 2018).

    Concurrency model: base nodes and delta records are immutable; the only
    mutable state is the mapping table's CaS-swung slots (plus per-node
    allocation markers, the epoch system, and the slots of a leaf's delta
    slab, each written once by the writer that claimed it before the CaS
    that publishes it). Every state change is a single CaS on a logical
    node's slot. A failed CaS aborts the operation, which restarts from
    the root (§2.2).

    See {!Bwtree_intf} for the configuration knobs; every optimization from
    the paper is an independent switch. *)

include Bwtree_intf
module Leaf_page = Leaf_page
(** Re-exported so tests and tools can instantiate the full page
    interface (build/merge) without going through a tree. *)

module Growable = Bw_util.Growable

exception Restart
(** Internal control flow: the current attempt observed interference
    (failed CaS, in-flight SMO) and must retry from the root. Never escapes
    the public API. *)

module Make (K : KEY) (V : VALUE) :
  S with type key = K.t and type value = V.t = struct
  type key = K.t
  type value = V.t

  (* The one leaf-materialization representation (DESIGN.md, "Leaf
     pages"): every consumer of leaf contents goes through this module.
     [P] is the full internal interface; the public [Page] alias below is
     narrowed to [Leaf_page.S] by the signature constraint. *)
  module P = Leaf_page.Make (K) (V)
  module Page = P

  (* ---------------------------------------------------------------- *)
  (* Bounds                                                            *)
  (* ---------------------------------------------------------------- *)

  type bound = Neg_inf | B of key | Pos_inf

  let cmp_bound a b =
    match (a, b) with
    | Neg_inf, Neg_inf | Pos_inf, Pos_inf -> 0
    | Neg_inf, _ -> -1
    | _, Neg_inf -> 1
    | Pos_inf, _ -> 1
    | _, Pos_inf -> -1
    | B x, B y -> K.compare x y

  (* compare a key against a bound *)
  let kb k b = match b with Neg_inf -> 1 | Pos_inf -> -1 | B x -> K.compare k x

  let pp_bound ppf = function
    | Neg_inf -> Format.pp_print_string ppf "-inf"
    | Pos_inf -> Format.pp_print_string ppf "+inf"
    | B k -> K.pp ppf k

  let nil_id = -1

  (* ---------------------------------------------------------------- *)
  (* Elements: base nodes and delta records                            *)
  (* ---------------------------------------------------------------- *)

  (* A node version's key range and right sibling (Table 1's low key,
     high key and right-sibling attributes). A base and every data delta
     above it share one physical record: only a split or merge delta (which
     changes the range) and a new node allocate one, and consolidation
     hands the head's record to the new base. *)
  type range = {
    lo : bound;  (* low key *)
    hi : bound;  (* high key = low key of right sibling *)
    right : int;  (* right sibling id, [nil_id] if none *)
  }

  (* Every element is one heap block: each constructor carries its fields
     inline, so following [next] lands directly on the next record and a
     chain step costs one dependent load. A delta also carries the node's
     attributes as of that version (Table 1), so threads read the logical
     node's current state from the chain head without replaying the chain:
     [size] (items in the logical node) and [depth] (delta records from
     this one down to the base, this one included). A base derives them
     instead: its size is its item count, its depth 0.

     [range] is the first field in every constructor, so [range_of]
     compiles to one load with no tag switch, and [next] the second in
     every constructor that has one, so a chain step reads the same
     offset whatever the delta kind. *)
  type elem =
    | Leaf of { range : range; lb_page : P.t }
    | Inner of {
        range : range;
        ib_seps : key array;
            (* separators 1..n-1, strictly ascending inside (lo, hi);
               separator 0 is [range.lo]. ib_ids.(i) owns keys from
               separator i up to separator i+1, the last range closed by
               hi. Unboxed: routing compares keys, never bounds. *)
        ib_ids : int array;
        ib_pre : prealloc option;
      }
    (* The heap data deltas of trees without pre-allocation: key,
       value(s) and the §4.3 base-node position of the key ([offset], -1
       when unknown) inline, 8 words (9 for an update) per delta. *)
    | LIns of { range : range; next : elem; size : int; depth : int;
                offset : int; key : key; v : value }
    | LDel of { range : range; next : elem; size : int; depth : int;
                offset : int; key : key; v : value (* the value removed *) }
    | LUpd of { range : range; next : elem; size : int; depth : int;
                offset : int; key : key; vold : value; vnew : value }
    (* With pre-allocation (§4.1) a leaf's data deltas live in its slab
       instead, and the head names the newest: slot [slot] of [slab], whose
       predecessor links walk the run of slots down to [below] (the base,
       or the split or merge delta the run was appended on). Appends on an
       [LSlab] head extend its run, so [below] is never another [LSlab];
       data deltas above a split or merge delta claim slots from the slab
       under it (see [spine_slab]). A head is 7 words whatever the kind. *)
    | LSlab of { range : range; slab : slab; slot : int; size : int;
                 depth : int; below : elem }
    (* Leaf SMO deltas and every inner delta are rare, so their op stays a
       separate block. *)
    | LSmo of { range : range; next : elem; size : int; depth : int; op : l_smo }
    | ID of { range : range; next : elem; size : int; depth : int; op : i_op }

  and l_smo =
    | L_split of key * int * bool Atomic.t
        (* split key, new right sibling id, Stage III done (set once, by
           whoever posts or confirms the parent's separator) *)
    | L_merge of key * elem * int  (* merge key, right branch, removed id *)
    | L_remove  (* this node is being merged into its left sibling *)

  and i_op =
    | I_ins of key * int * bound  (* new separator, child id, next separator *)
    | I_del of key * bound * int * bound
        (* deleted separator K1; preceding separator K0 with child N0; the
           following separator K2 — the Appendix A.2 Stage III record *)
    | I_split of key * int * bool Atomic.t
    | I_merge of key * elem * int
    | I_remove
    | I_abort  (* write-locks this node against appends (Appendix B) *)

  (* A leaf's §4.1 delta chunk ({!Leaf_page.slab}): keys, values, old
     values and meta words in parallel arrays, one slot per data delta. *)
  and slab = (key, value) Leaf_page.slab

  (* An inner base's §4.1 allocation marker over a fixed number of slots.
     Claiming a slot is one atomic add; exhaustion forces consolidation.
     Inner deltas are rare and stay ordinary heap blocks, so the marker
     reproduces only the allocation discipline and its statistics; leaf
     deltas live in a real chunk, the [slab]. *)
  and prealloc = { cap : int; used : int Atomic.t; wasted : int Atomic.t }

  (* The node attributes, read off any element without allocating. *)
  let range_of = function
    | Leaf { range; _ } | Inner { range; _ } | LIns { range; _ }
    | LDel { range; _ } | LUpd { range; _ } | LSlab { range; _ }
    | LSmo { range; _ } | ID { range; _ } ->
        range

  let size_of = function
    | Leaf b -> P.length b.lb_page
    | Inner b -> Array.length b.ib_ids
    | LIns { size; _ } | LDel { size; _ } | LUpd { size; _ }
    | LSlab { size; _ } | LSmo { size; _ } | ID { size; _ } ->
        size

  let depth_of = function
    | Leaf _ | Inner _ -> 0
    | LIns { depth; _ } | LDel { depth; _ } | LUpd { depth; _ }
    | LSlab { depth; _ } | LSmo { depth; _ } | ID { depth; _ } ->
        depth

  let is_leaf_elem = function
    | Leaf _ | LIns _ | LDel _ | LUpd _ | LSlab _ | LSmo _ -> true
    | Inner _ | ID _ -> false

  (* The slab a data delta appended on [head] claims its slot from: the
     one under the head's run, reached through any split or merge deltas
     above it; [no_slab] when the chain has none yet. *)
  let no_slab : slab = Leaf_page.new_slab ~cap:0 ~unique:true

  let rec spine_slab = function
    | LSlab d -> d.slab
    | LSmo { next; _ } -> spine_slab next
    | Leaf _ | Inner _ | LIns _ | LDel _ | LUpd _ | ID _ -> no_slab

  (* the unbounded range of a tree's first leaf and of every new root *)
  let whole = { lo = Neg_inf; hi = Pos_inf; right = nil_id }

  (* ---------------------------------------------------------------- *)
  (* Tree                                                              *)
  (* ---------------------------------------------------------------- *)

  (* Per-thread side results of the descent, the leaf walk and the write
     cores, so none of them has to return a tuple or a record: the point
     paths allocate nothing here. Also the thread's working state that
     outlives one op: the read-consolidation budget.

     A point read stores to [c_id], [c_offset], [c_walked] and
     [c_read_walk], so two domains' cursors must not share a cache line.
     The allocator may place the cursors side by side, so a line of
     never-written padding fields ([Bw_util.Padded.line_words] of them)
     sits before and after the hot fields, inside the block. *)
  type cursor = {
    _a0 : int; _a1 : int; _a2 : int; _a3 : int;
    _a4 : int; _a5 : int; _a6 : int; _a7 : int;
    mutable c_id : int;  (* leaf the last descent found *)
    mutable c_path : int list;
        (* its ancestors' ids, nearest first; written only by tracking
           (write-path) descents *)
    mutable c_offset : int;  (* §4.3 base position for an appended delta *)
    mutable c_walked : int;  (* delta records the last leaf walk crossed *)
    mutable c_ok : bool;  (* the last write core's point-op outcome *)
    mutable c_restarts : int;  (* root restarts this thread has taken *)
    mutable c_read_walk : int;
        (* delta records walked by point reads since the last read-side
           consolidation *)
    _z0 : int; _z1 : int; _z2 : int; _z3 : int;
    _z4 : int; _z5 : int; _z6 : int; _z7 : int;
  }

  type t = {
    cfg : config;
    table : elem Mapping_table.t;
    root : int Atomic.t;
    epoch : Epoch.t;
    o : Bw_obs.sink;
    cur : cursor array;  (* [tid], owner-written *)
    bperm : int array array;
        (* per-tid batch-permutation scratch, owner-written; each row
           only grows, to the largest batch seen, and a batch of [n] ops
           uses its first [n] slots, so batches of varying size (a
           forest's shard sub-batches) sort without allocating *)
  }

  (* Counter probes: on the null sink one branch and nothing else. They
     match the sink here rather than ask [Bw_obs.enabled]: a call into
     another library is not inlined in the default (dev) build. *)
  let cnt o tid c =
    match o with Bw_obs.Null -> () | Bw_obs.To _ -> Bw_obs.incr o ~tid c

  let count_restart t ~tid =
    let c = t.cur.(tid) in
    c.c_restarts <- c.c_restarts + 1;
    cnt t.o tid Bw_obs.C_restarts;
    Domain.cpu_relax ()

  (* Slots per pre-allocated chunk: one more than the chain-length
     trigger, which normally fires first, so exhaustion is the backstop,
     not the common case. *)
  let leaf_slab_cap cfg = cfg.leaf_chain_max + 1

  let new_prealloc cfg =
    if not cfg.preallocate then None
    else
      Some
        { cap = cfg.inner_chain_max + 1; used = Atomic.make 0;
          wasted = Atomic.make 0 }

  let empty_leaf () = Leaf { range = whole; lb_page = P.empty }

  (* Sentinel element: "no element" where a function returns a head
     (no in-place rewrite, no cached batch leaf yet). Only ever compared
     physically. *)
  let no_leaf = empty_leaf ()

  let create ?(config = default_config) ?(obs = Bw_obs.Null) () =
    Config.validate config;
    let dummy = empty_leaf () in
    let table = Mapping_table.create ~obs ~dummy () in
    let leaf = empty_leaf () in
    let leaf_id = Mapping_table.allocate table leaf in
    let root =
      Inner
        {
          range = whole;
          ib_seps = [||];
          ib_ids = [| leaf_id |];
          ib_pre = new_prealloc config;
        }
    in
    let root_id = Mapping_table.allocate table root in
    {
      cfg = config;
      table;
      root = Atomic.make root_id;
      epoch =
        Epoch.create ~scheme:config.gc_scheme ~max_threads:config.max_threads
          ~gc_threshold:config.gc_threshold ~obs ();
      o = obs;
      cur =
        Array.init config.max_threads (fun _ ->
            {
              _a0 = 0; _a1 = 0; _a2 = 0; _a3 = 0;
              _a4 = 0; _a5 = 0; _a6 = 0; _a7 = 0;
              c_id = nil_id;
              c_path = [];
              c_offset = -1;
              c_walked = 0;
              c_ok = false;
              c_restarts = 0;
              c_read_walk = 0;
              _z0 = 0; _z1 = 0; _z2 = 0; _z3 = 0;
              _z4 = 0; _z5 = 0; _z6 = 0; _z7 = 0;
            });
      bperm = Array.make config.max_threads [||];
    }

  let config t = t.cfg
  let obs t = t.o
  let epoch t = t.epoch

  (* The linearization primitive: swing a logical node's physical pointer. *)
  let mt_cas t ~tid id ~expect ~repl =
    cnt t.o tid Bw_obs.C_cas_attempts;
    let ok =
      if t.cfg.use_atomic_cas then Mapping_table.cas t.table id ~expect ~repl
      else Mapping_table.cas_unsafe t.table id ~expect ~repl
    in
    if not ok then cnt t.o tid Bw_obs.C_cas_failures;
    ok

  let mt_get t ~tid id =
    cnt t.o tid Bw_obs.C_ptr_derefs;
    Mapping_table.get t.table id

  (* ---------------------------------------------------------------- *)
  (* Sorted-array helpers                                              *)
  (* ---------------------------------------------------------------- *)

  (* In-leaf key search lives in {!Leaf_page} ([P.lower_bound] and
     friends) — one implementation for descent, batch probes, iterators
     and the frozen tree. The page counts nothing, so each caller charges
     the search's comparison bound itself ([lower_bound]). Only the
     separator search below stays here. *)

  let lower_bound o ~tid pg k =
    (match o with
    | Bw_obs.Null -> ()
    | Bw_obs.To _ ->
        Bw_obs.add o ~tid Bw_obs.C_key_compares (P.search_cost pg));
    P.lower_bound pg k

  (* The child slot routing [k] in an inner base: how many of the
     separators 1..n-1 ([seps], unboxed) are <= k, found by the key
     type's upper-bound kernel. Separator 0, the node's low bound, is
     <= k for any correctly-routed traversal, so it is never compared.
     Charges the search's comparison bound, like [lower_bound]. *)
  let sep_index o ~tid (seps : key array) k =
    let n = Array.length seps in
    (match o with
    | Bw_obs.Null -> ()
    | Bw_obs.To _ ->
        Bw_obs.add o ~tid Bw_obs.C_key_compares (P.search_cost_n n));
    K.upper_bound_in seps k ~lo:0 ~hi:n

  (* ---------------------------------------------------------------- *)
  (* Full replay: logical node -> sorted items (the "slow" path)       *)
  (* ---------------------------------------------------------------- *)

  (* Rebuilds a leaf logical node's sorted (key, value) items by applying
     the chain oldest-first. Correct for every delta kind, including SMO
     records; used by consolidation (baseline mode), splits, iterators and
     the invariant checker. On a unique-key tree a delete or an update
     removes whatever its key holds (unique-key slabs keep no old
     values); otherwise it removes the exact (key, value) pair. *)
  let rec gather_leaf t ~tid (e : elem) : (key * value) Growable.t =
    let o = t.o in
    match e with
    | Leaf b ->
        let g = Growable.create ~capacity:(P.length b.lb_page + 8) () in
        P.iter_from b.lb_page 0 (fun k v -> Growable.push g (k, v));
        g
    | LSlab d ->
        cnt o tid Bw_obs.C_ptr_derefs;
        let items = gather_leaf t ~tid d.below in
        let s = d.slab in
        (* the run oldest first: predecessors before their successors *)
        let rec replay i =
          if i >= 0 then begin
            let m = s.Leaf_page.smeta.(i) in
            replay (Leaf_page.meta_pred m);
            replay_delta t ~tid items (Leaf_page.meta_kind m)
              s.Leaf_page.skeys.(i) s.Leaf_page.svals.(i)
              (Leaf_page.slot_old s i)
          end
        in
        replay d.slot;
        items
    | LIns { next; _ } | LDel { next; _ } | LUpd { next; _ } | LSmo { next; _ }
      -> (
        cnt o tid Bw_obs.C_ptr_derefs;
        let items = gather_leaf t ~tid next in
        match e with
        | LIns d ->
            replay_delta t ~tid items Leaf_page.kind_ins d.key d.v d.v;
            items
        | LDel d ->
            replay_delta t ~tid items Leaf_page.kind_del d.key d.v d.v;
            items
        | LUpd d ->
            replay_delta t ~tid items Leaf_page.kind_upd d.key d.vnew d.vold;
            items
        | LSmo { op = L_split (ks, _, _); _ } ->
            let cut = lower_bound_g o ~tid items ks in
            Growable.truncate items cut;
            items
        | LSmo { op = L_merge (_, right, _); _ } ->
            let r = gather_leaf t ~tid right in
            Growable.iter (fun it -> Growable.push items it) r;
            items
        | LSmo { op = L_remove; _ } | Leaf _ | Inner _ | LSlab _ | ID _ ->
            items)
    | Inner _ | ID _ -> assert false

  (* Apply one data delta of [kind] to the sorted [items]: an insert adds
     (k, v), a delete removes (k, v), an update replaces (k, vold) by
     (k, v). *)
  and replay_delta t ~tid items kind k v vold =
    let o = t.o in
    let find_pair k v =
      (* position of the exact (k, v) pair (any value of [k] on a
         unique-key tree), or -1 *)
      let n = Growable.length items in
      let i = ref (lower_bound_g o ~tid items k) in
      let found = ref (-1) in
      while
        !found < 0 && !i < n
        && K.compare (fst (Growable.get items !i)) k = 0
      do
        if t.cfg.unique_keys || V.equal (snd (Growable.get items !i)) v then
          found := !i;
        incr i
      done;
      !found
    in
    let remove k v =
      let pos = find_pair k v in
      if pos >= 0 then Growable.remove_at items pos
    in
    if kind = Leaf_page.kind_del then remove k v
    else begin
      if kind = Leaf_page.kind_upd then remove k vold;
      Growable.insert_at items (upper_bound_g o ~tid items k) (k, v)
    end

  and lower_bound_g o ~tid items k =
    let lo = ref 0 and hi = ref (Growable.length items) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      cnt o tid Bw_obs.C_key_compares;
      if K.compare (fst (Growable.get items mid)) k < 0 then lo := mid + 1
      else hi := mid
    done;
    !lo

  and upper_bound_g o ~tid items k =
    let lo = ref 0 and hi = ref (Growable.length items) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      cnt o tid Bw_obs.C_key_compares;
      if K.compare (fst (Growable.get items mid)) k <= 0 then lo := mid + 1
      else hi := mid
    done;
    !lo

  (* Same, for inner logical nodes: sorted (separator bound, child id). *)
  let rec gather_inner o ~tid (e : elem) : (bound * int) Growable.t =
    match e with
    | Inner b ->
        let ids = b.ib_ids in
        let g = Growable.create ~capacity:(Array.length ids + 4) () in
        if Array.length ids > 0 then Growable.push g (b.range.lo, ids.(0));
        Array.iteri (fun i s -> Growable.push g (B s, ids.(i + 1))) b.ib_seps;
        g
    | ID d -> (
        cnt o tid Bw_obs.C_ptr_derefs;
        let items = gather_inner o ~tid d.next in
        let pos_of_sep sep =
          let lo = ref 0 and hi = ref (Growable.length items) in
          while !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            cnt o tid Bw_obs.C_key_compares;
            if cmp_bound (fst (Growable.get items mid)) sep < 0 then
              lo := mid + 1
            else hi := mid
          done;
          !lo
        in
        match d.op with
        | I_ins (ks, cid, _) ->
            let pos = pos_of_sep (B ks) in
            if
              pos < Growable.length items
              && cmp_bound (fst (Growable.get items pos)) (B ks) = 0
            then Growable.set items pos (B ks, cid)
            else Growable.insert_at items pos (B ks, cid);
            items
        | I_del (k1, _, _, _) ->
            let pos = pos_of_sep (B k1) in
            if
              pos < Growable.length items
              && cmp_bound (fst (Growable.get items pos)) (B k1) = 0
            then Growable.remove_at items pos;
            items
        | I_split (ks, _, _) ->
            let cut = pos_of_sep (B ks) in
            Growable.truncate items cut;
            items
        | I_merge (_, right, _) ->
            let r = gather_inner o ~tid right in
            Growable.iter (fun it -> Growable.push items it) r;
            items
        | I_remove | I_abort -> items)
    | Leaf _ | LIns _ | LDel _ | LUpd _ | LSlab _ | LSmo _ -> assert false

  (* ---------------------------------------------------------------- *)
  (* Fast consolidation (§4.3)                                         *)
  (* ---------------------------------------------------------------- *)

  (* Applicable when the chain is only data deltas over a leaf base: a
     slab run is merged straight out of the slab's arrays; a chain of
     heap deltas (no pre-allocation) is converted into {!P.delta} records.
     Either way the page module resolves visibility and emits the new
     page with a single two-way merge — no full sort. [None] on
     SMO-bearing chains; the caller falls back to the general replay. *)
  let consolidate_leaf_chain t ~tid (head : elem) : P.t option =
    let o = t.o in
    let charge base searches =
      match o with
      | Bw_obs.Null -> ()
      | Bw_obs.To _ ->
          Bw_obs.add o ~tid Bw_obs.C_key_compares
            (searches * P.search_cost base)
    in
    match head with
    | LSlab { slab; slot; below = Leaf b; _ } ->
        cnt o tid Bw_obs.C_ptr_derefs;
        let page, searches =
          P.merge_with_slab b.lb_page slab ~top:slot
            ~unique:t.cfg.unique_keys
        in
        charge b.lb_page searches;
        Some page
    | _ -> (
        let exception Fallback in
        try
          let rec walk e =
            match e with
            | Leaf b -> (b.lb_page, [])
            | LIns d -> push (P.Ins (d.key, d.v)) d.next
            | LDel d -> push (P.Del (d.key, d.v)) d.next
            | LUpd d -> push (P.Upd (d.key, d.vold, d.vnew)) d.next
            | LSlab _ | LSmo _ | Inner _ | ID _ -> raise Fallback
          and push dd next =
            cnt o tid Bw_obs.C_ptr_derefs;
            let b, ds = walk next in
            (b, dd :: ds)
          in
          let base, deltas = walk head in
          let page, searches = P.merge_with_deltas base deltas in
          charge base searches;
          Some page
        with Fallback -> None)

  (* ---------------------------------------------------------------- *)
  (* Building base nodes                                               *)
  (* ---------------------------------------------------------------- *)

  let leaf_base_of_page page ~range = Leaf { range; lb_page = page }

  let inner_base_of_items t items ~range =
    let n = Array.length items in
    (* the first separator of an inner node is its own low bound, so only
       the rest are stored; those are always finite keys *)
    let seps =
      Array.init
        (max 0 (n - 1))
        (fun i -> match fst items.(i + 1) with B k -> k | _ -> assert false)
    in
    Inner
      {
        range;
        ib_seps = seps;
        ib_ids = Array.map snd items;
        ib_pre = new_prealloc t.cfg;
      }

  (* ---------------------------------------------------------------- *)
  (* Consolidation (§2.3)                                              *)
  (* ---------------------------------------------------------------- *)

  let head_has_smo head =
    let rec go = function
      | Leaf _ | Inner _ -> false
      | LIns { next; _ } | LDel { next; _ } | LUpd { next; _ }
      | LSlab { below = next; _ }
      | ID { op = I_ins _ | I_del _; next; _ } ->
          go next
      | LSmo _ | ID { op = I_split _ | I_merge _ | I_remove | I_abort; _ } ->
          true
    in
    go head

  (* A split delta at the head whose done flag is still clear is the only
     evidence that the new right sibling's separator may be unposted
     (Stage III pending) — help-along in [descend] triggers off it.
     Ordinary appends only land on top of a split delta once the split
     is complete, so a BURIED split delta is always a completed split.
     Paths that cannot complete Stage III themselves must therefore
     leave pending heads alone: consolidation completes the split first
     and merges give up on such victims. Absorbing the evidence early
     would orphan the right sibling — the parent never learns its
     separator, and the sibling's own split later restarts forever
     against routing that cannot recognize it. A set flag means the separator is in the parent and
     stays there while the split delta heads its node (see DESIGN.md
     "Read path"), so such heads are treated like any other. *)
  let head_is_split_topped = function
    | LSmo { op = L_split (_, _, fin); _ } | ID { op = I_split (_, _, fin); _ }
      ->
        not (Atomic.get fin)
    | _ -> false

  let mark_done fin = if not (Atomic.get fin) then Atomic.set fin true

  (* Forward reference, tied to [descend] once it exists: run
     clean from-root descents for a split key until one completes without
     a [Restart], then mark the split done. Routing for the key then
     either went through the posted separator or help-completed the
     pending Stage III on the way — so afterwards the split delta at that
     node's head is guaranteed absorbed-safe. *)
  let complete_split_for : (t -> tid:int -> key -> bool Atomic.t -> unit) ref =
    ref (fun _ ~tid:_ _ _ -> ())

  (* The baseline consolidation of §2.3 as the paper describes it: replay
     the chain to collect the logical node's items, then sort. Applies to
     chains of plain data deltas (like the fast path); SMO-bearing chains
     fall back to the general gather. *)
  let sort_consolidate_leaf t ~tid (head : elem) : (key * value) array option =
    let o = t.o in
    let exception Fallback in
    try
      let pres : (key * value) Growable.t = Growable.create () in
      let dels : (key * value) Growable.t = Growable.create () in
      let take_pending k v =
        let n = Growable.length dels in
        let rec go i =
          if i >= n then false
          else
            let k', v' = Growable.get dels i in
            if K.compare k' k = 0 && (t.cfg.unique_keys || V.equal v' v)
            then begin
              Growable.remove_at dels i;
              true
            end
            else go (i + 1)
        in
        go 0
      in
      (* one data delta, newest first *)
      let visit kind k v vold =
        if kind = Leaf_page.kind_del then Growable.push dels (k, v)
        else begin
          if not (take_pending k v) then Growable.push pres (k, v);
          if kind = Leaf_page.kind_upd then Growable.push dels (k, vold)
        end
      in
      let rec walk e =
        match e with
        | Leaf b -> b.lb_page
        | LSlab { slab = s; slot; below; _ } ->
            cnt o tid Bw_obs.C_ptr_derefs;
            let i = ref slot in
            while !i >= 0 do
              let m = s.Leaf_page.smeta.(!i) in
              visit (Leaf_page.meta_kind m) s.Leaf_page.skeys.(!i)
                s.Leaf_page.svals.(!i) (Leaf_page.slot_old s !i);
              i := Leaf_page.meta_pred m
            done;
            walk below
        | LIns { key = k; v; next; _ } ->
            cnt o tid Bw_obs.C_ptr_derefs;
            visit Leaf_page.kind_ins k v v;
            walk next
        | LDel { key = k; v; next; _ } ->
            cnt o tid Bw_obs.C_ptr_derefs;
            visit Leaf_page.kind_del k v v;
            walk next
        | LUpd { key = k; vold; vnew; next; _ } ->
            cnt o tid Bw_obs.C_ptr_derefs;
            visit Leaf_page.kind_upd k vnew vold;
            walk next
        | LSmo _ | Inner _ | ID _ -> raise Fallback
      in
      let base = walk head in
      let out = Growable.create ~capacity:(P.length base + 8) () in
      P.iter_from base 0 (fun k v ->
          if not (take_pending k v) then Growable.push out (k, v));
      Growable.iter (fun kv -> Growable.push out kv) pres;
      let items = Growable.to_array out in
      (* the paper's baseline pays a full sort here *)
      Array.sort (fun (a, _) (b, _) -> K.compare a b) items;
      Some items
    with Fallback -> None

  (* Replace a logical node's chain by a freshly-built base node. SMO
     deltas are absorbed: the head's range already is the post-SMO
     lo/hi/right (Table 1), and the replay truncates/concatenates items
     accordingly. Nodes with a remove delta at the head are skipped — they
     are about to disappear. Returns the new base when this call's CaS
     installed it, [head] otherwise. *)
  let try_consolidate t ~tid id (head : elem) =
    let depth = depth_of head in
    if depth = 0 then head
    else
      match head with
      | LSmo { op = L_remove; _ } | ID { op = I_remove | I_abort; _ } -> head
      | _ ->
          (* A split delta at the head may carry a still-unposted
             separator (Stage III pending — its splitter may still be
             posting it). Absorbing it would orphan the right sibling,
             so complete the split first; the CaS below then only
             absorbs what the descent just proved complete (see
             [head_is_split_topped]). *)
          (match head with
          | LSmo { op = L_split (ks, _, fin); _ }
          | ID { op = I_split (ks, _, fin); _ }
            when not (Atomic.get fin) ->
              !complete_split_for t ~tid ks fin
          | _ -> ());
          let t0 = if Bw_obs.enabled t.o then Bw_obs.now_ns () else 0 in
          let repl =
            if is_leaf_elem head then begin
              let page =
                if t.cfg.fast_consolidation then
                  consolidate_leaf_chain t ~tid head
                else
                  (* the paper's baseline pays the full sort *)
                  Option.map P.build (sort_consolidate_leaf t ~tid head)
              in
              let page =
                match page with
                | Some p -> p
                | None -> P.build (Growable.to_array (gather_leaf t ~tid head))
              in
              leaf_base_of_page page ~range:(range_of head)
            end
            else
              let items = Growable.to_array (gather_inner t.o ~tid head) in
              inner_base_of_items t items ~range:(range_of head)
          in
          if mt_cas t ~tid id ~expect:head ~repl then begin
            if Bw_obs.enabled t.o then begin
              Bw_obs.observe t.o ~tid Bw_obs.Lat_consolidate
                (Bw_obs.now_ns () - t0);
              Bw_obs.incr t.o ~tid Bw_obs.C_consolidations;
              Bw_obs.event t.o ~tid Bw_obs.Ev_consolidate ~a:id ~b:depth
            end;
            Epoch.retire t.epoch ~tid (Obj.repr head);
            repl
          end
          else head

  let consolidate t ~tid id head = ignore (try_consolidate t ~tid id head)

  let rec consolidate_subtree t ~tid id =
    let head = mt_get t ~tid id in
    if not (is_leaf_elem head) then begin
      let children = gather_inner t.o ~tid head in
      Growable.iter (fun (_, cid) -> consolidate_subtree t ~tid cid) children
    end;
    consolidate t ~tid id (mt_get t ~tid id)

  let consolidate_all t = consolidate_subtree t ~tid:0 (Atomic.get t.root)

  (* ---------------------------------------------------------------- *)
  (* Delta append plumbing                                             *)
  (* ---------------------------------------------------------------- *)

  (* find the (left) base node of an inner chain, for its prealloc
     marker *)
  let rec chain_base (e : elem) =
    match e with
    | Inner _ -> e
    | ID { next; _ } -> chain_base next
    | Leaf _ | LIns _ | LDel _ | LUpd _ | LSlab _ | LSmo _ -> assert false

  let prealloc_of e =
    match chain_base e with Inner b -> b.ib_pre | _ -> assert false

  (* The §4.1 overflow path shared by both node kinds: exhaustion forces
     consolidation and makes the caller retry. *)
  let overflow t ~tid id head =
    cnt t.o tid Bw_obs.C_prealloc_overflows;
    consolidate t ~tid id head;
    raise Restart

  (* §4.1 on an inner node: claim one slot of its marker. *)
  let claim_slot t ~tid id head =
    match prealloc_of head with
    | None -> ()
    | Some pre ->
        if Atomic.fetch_and_add pre.used 1 >= pre.cap then
          overflow t ~tid id head

  let slot_wasted head =
    match prealloc_of head with
    | None -> ()
    | Some pre -> ignore (Atomic.fetch_and_add pre.wasted 1)

  (* §4.1 on a leaf: the data delta for an append on [head], written into
     a claimed slot of the chain's slab. The claim is one fetch-and-add;
     the chain's first append allocates the slab with its slot 0 already
     claimed, so a racer that loses the publishing CaS just drops it. The
     slot is filled with plain stores; the mapping-table CaS that
     installs the returned head publishes them (DESIGN.md, "Immutable
     elements"). A head built on an [LSlab] extends its run; on a base or
     an SMO delta it starts a new run over it. *)
  let slab_delta t ~tid id head ~kind ~step ~offset k v vold =
    let old = spine_slab head in
    let slab =
      if old == no_slab then
        Leaf_page.new_slab ~cap:(leaf_slab_cap t.cfg) ~unique:t.cfg.unique_keys
      else old
    in
    let slot =
      if old == no_slab then 0
      else
        let i = Atomic.fetch_and_add slab.Leaf_page.used 1 in
        if i >= Leaf_page.slab_cap slab then overflow t ~tid id head else i
    in
    let range = range_of head
    and size = size_of head + step
    and depth = depth_of head + 1 in
    match head with
    | LSlab h ->
        Leaf_page.fill_slot slab slot ~kind ~pred:h.slot ~offset k v vold;
        LSlab { range; slab; slot; size; depth; below = h.below }
    | _ ->
        Leaf_page.fill_slot slab slot ~kind ~pred:(-1) ~offset k v vold;
        LSlab { range; slab; slot; size; depth; below = head }

  (* The same delta as a heap record, for trees without pre-allocation. *)
  let heap_delta head ~kind ~step ~offset key v vold =
    let range = range_of head
    and next = head
    and size = size_of head + step
    and depth = depth_of head + 1 in
    if kind = Leaf_page.kind_ins then
      LIns { range; next; size; depth; offset; key; v }
    else if kind = Leaf_page.kind_del then
      LDel { range; next; size; depth; offset; key; v }
    else LUpd { range; next; size; depth; offset; key; vold; vnew = v }

  let head_is_append_blocked = function
    | LSmo { op = L_remove; _ } | ID { op = I_remove | I_abort; _ } -> true
    | _ -> false

  (* ---------------------------------------------------------------- *)
  (* Inner-node navigation                                             *)
  (* ---------------------------------------------------------------- *)

  (* A routing decision packed into one int, so navigation allocates
     nothing: a child id (>= 0), or a right move to sibling [rid] encoded
     as [go_right rid] (< -1; ids are never negative). *)
  let go_right rid = -rid - 2
  let right_of nav = -nav - 2

  (* Route [k] within one inner logical node. The caller has already
     verified k < hi of the chain head. *)
  let rec inner_nav o ~tid (e : elem) k =
    match e with
    | ID d -> (
        cnt o tid Bw_obs.C_ptr_derefs;
        match d.op with
        | I_ins (ks, cid, nsep) ->
            cnt o tid Bw_obs.C_key_compares;
            if K.compare k ks >= 0 && kb k nsep < 0 then cid
            else inner_nav o ~tid d.next k
        | I_del (_, k0, n0, k2) ->
            if kb k k0 >= 0 && kb k k2 < 0 then n0
            else inner_nav o ~tid d.next k
        | I_split (ks, rid, _) ->
            cnt o tid Bw_obs.C_key_compares;
            if K.compare k ks >= 0 then go_right rid
            else inner_nav o ~tid d.next k
        | I_merge (km, right, _) ->
            cnt o tid Bw_obs.C_key_compares;
            inner_nav o ~tid (if K.compare k km >= 0 then right else d.next) k
        | I_remove | I_abort -> inner_nav o ~tid d.next k)
    | Inner b ->
        let r = b.range in
        if kb k r.hi >= 0 && r.right <> nil_id then go_right r.right
        else Array.unsafe_get b.ib_ids (sep_index o ~tid b.ib_seps k)
    | Leaf _ | LIns _ | LDel _ | LUpd _ | LSlab _ | LSmo _ -> assert false

  (* Exact routing context from the consolidated view: the separator
     governing [k], its child, and the tight next bound. Used when posting
     SMO records, where stale "next separator" shortcuts would corrupt
     routing. *)
  let inner_locate_exact o ~tid (head : elem) k : bound * int * bound =
    let items = gather_inner o ~tid head in
    let n = Growable.length items in
    assert (n > 0);
    (* largest i with sep <= k *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if kb k (fst (Growable.get items mid)) >= 0 then lo := mid
      else hi := mid - 1
    done;
    let sep, cid = Growable.get items !lo in
    let nsep =
      if !lo + 1 < n then fst (Growable.get items (!lo + 1))
      else (range_of head).hi
    in
    (sep, cid, nsep)

  (* ---------------------------------------------------------------- *)
  (* Structure modification: split (Appendix A.1)                      *)
  (* ---------------------------------------------------------------- *)

  (* Posting the separator for a completed half-split into the parent
     (Stage III), or growing a new root when the root itself split. On
     return (no [Restart]) the separator is in the tree, and the split
     delta's done flag [fin] is set. *)
  let rec post_split_separator t ~tid ~parent_path ~left_id ~ks ~rid ~fin =
    match parent_path with
    | [] ->
        (* root split: grow the tree by one level *)
        let old_root = Atomic.get t.root in
        if old_root <> left_id then raise Restart;
        let root =
          Inner
            {
              range = whole;
              ib_seps = [| ks |];
              ib_ids = [| left_id; rid |];
              ib_pre = new_prealloc t.cfg;
            }
        in
        let root_id = Mapping_table.allocate t.table root in
        if not (Atomic.compare_and_set t.root old_root root_id) then begin
          Mapping_table.free_id t.table root_id;
          raise Restart
        end;
        mark_done fin
    | pid :: rest ->
        let rec attempt pid =
          let phead = mt_get t ~tid pid in
          if head_is_append_blocked phead then raise Restart;
          let pr = range_of phead in
          if kb ks pr.hi >= 0 && pr.right <> nil_id then
            (* the parent itself split; our separator belongs right *)
            attempt pr.right
          else begin
            let sep, cid, nsep = inner_locate_exact t.o ~tid phead ks in
            if cmp_bound sep (B ks) = 0 then
              (* separator already posted: split complete *)
              mark_done fin
            else if cid <> left_id then
              (* the parent no longer routes [ks] to the split node —
                 interference; retry the whole operation *)
              raise Restart
            else begin
              claim_slot t ~tid pid phead;
              let d =
                ID
                  { range = pr; next = phead; size = size_of phead + 1;
                    depth = depth_of phead + 1; op = I_ins (ks, rid, nsep) }
              in
              if not (mt_cas t ~tid pid ~expect:phead ~repl:d) then begin
                cnt t.o tid Bw_obs.C_delta_cas_failures;
                slot_wasted phead;
                raise Restart
              end;
              mark_done fin;
              post_append_inner t ~tid pid d rest
            end
          end
        in
        attempt pid

  (* Post-append housekeeping shared by all inner-delta writers. *)
  and post_append_inner t ~tid id (head : elem) parent_path =
    if size_of head > t.cfg.inner_max then
      ignore (split_node t ~tid id head parent_path)
    else if depth_of head >= t.cfg.inner_chain_max then
      consolidate t ~tid id head

  (* Split one logical node (leaf or inner). Stage I builds the new right
     sibling and publishes it in the mapping table; Stage II posts the
     split delta; Stage III posts the separator to the parent. Returns
     the split delta when this call installed it (its Stage III then
     complete), [head] otherwise. *)
  and split_node t ~tid id (head : elem) parent_path =
    let r = range_of head in
    if head_is_append_blocked head then head
    else
      let leaf = is_leaf_elem head in
      (* the split key and the new right sibling's base, or no split *)
      let cut =
        if leaf then begin
          let items = Growable.to_array (gather_leaf t ~tid head) in
          let n = Array.length items in
          if n <= t.cfg.leaf_max then None
          else begin
            (* choose a split point that does not separate equal keys *)
            let pos = ref (n / 2) in
            while
              !pos < n && K.compare (fst items.(!pos - 1)) (fst items.(!pos)) = 0
            do
              incr pos
            done;
            if !pos >= n then None
            else
              let ks = fst items.(!pos) in
              Some
                ( ks,
                  !pos,
                  leaf_base_of_page
                    (P.build_sub items ~pos:!pos ~len:(n - !pos))
                    ~range:{ lo = B ks; hi = r.hi; right = r.right } )
          end
        end
        else begin
          let items = Growable.to_array (gather_inner t.o ~tid head) in
          let n = Array.length items in
          if n <= t.cfg.inner_max then None
          else
            let pos = n / 2 in
            match fst items.(pos) with
            | Neg_inf | Pos_inf -> None
            | B ks ->
                Some
                  ( ks,
                    pos,
                    inner_base_of_items t
                      (Array.sub items pos (n - pos))
                      ~range:{ lo = B ks; hi = r.hi; right = r.right } )
        end
      in
      match cut with
      | None -> head
      | Some (ks, size, right) ->
          let rid = Mapping_table.allocate t.table right in
          cnt t.o tid Bw_obs.C_allocations;
          let fin = Atomic.make false in
          let range = { lo = r.lo; hi = B ks; right = rid }
          and depth = depth_of head + 1 in
          let d =
            if leaf then
              LSmo { range; next = head; size; depth; op = L_split (ks, rid, fin) }
            else ID { range; next = head; size; depth; op = I_split (ks, rid, fin) }
          in
          if not (mt_cas t ~tid id ~expect:head ~repl:d) then begin
            cnt t.o tid Bw_obs.C_delta_cas_failures;
            Mapping_table.free_id t.table rid;
            head
          end
          else begin
            if Bw_obs.enabled t.o then begin
              Bw_obs.incr t.o ~tid Bw_obs.C_splits;
              Bw_obs.event t.o ~tid Bw_obs.Ev_split ~a:id ~b:rid
            end;
            finish_split t ~tid ~parent_path ~id ~ks ~rid ~fin;
            d
          end

  (* Stage III for a split this thread just posted. A parent split that
     a read's help-along cascades into carries no ancestor path (the
     read knows only the immediate parent); an empty path on a non-root
     node would otherwise fall into [post_split_separator]'s root-grow
     branch, raise, and leave the right sibling orphaned (callers
     swallow Restarts once their own CaS has landed). A posting that
     loses a race raises too, and would leave the split pending until a
     later traversal happens to help it — never, if no one visits the
     leaf again, so a quiesced tree could keep an unposted separator.
     Both complete through clean from-root descents instead. *)
  and finish_split t ~tid ~parent_path ~id ~ks ~rid ~fin =
    match parent_path with
    | [] when Atomic.get t.root <> id -> !complete_split_for t ~tid ks fin
    | _ -> (
        try post_split_separator t ~tid ~parent_path ~left_id:id ~ks ~rid ~fin
        with Restart -> !complete_split_for t ~tid ks fin)

  (* ---------------------------------------------------------------- *)
  (* Structure modification: merge (Appendix A.2 + B)                  *)
  (* ---------------------------------------------------------------- *)

  (* When the root inner node is down to one child that is itself an inner
     node, make that child the new root (the inverse of a root split). *)
  and collapse_root t ~tid root_id =
    if Atomic.get t.root = root_id then begin
      let head = mt_get t ~tid root_id in
      if size_of head = 1 && not (is_leaf_elem head) && not (head_has_smo head)
      then begin
        let items = gather_inner t.o ~tid head in
        if Growable.length items = 1 then begin
          let _, cid = Growable.get items 0 in
          let child = mt_get t ~tid cid in
          if not (is_leaf_elem child) then
            if Atomic.compare_and_set t.root root_id cid then begin
              if Bw_obs.enabled t.o then begin
                Bw_obs.incr t.o ~tid Bw_obs.C_root_collapses;
                Bw_obs.event t.o ~tid Bw_obs.Ev_root_collapse ~a:root_id
                  ~b:cid
              end;
              Epoch.retire t.epoch ~tid (Obj.repr head)
            end
        end
      end
    end

  (* Merge [id] into its left sibling. The ∆abort on the parent is posted
     FIRST (Appendix B): it write-locks the parent so no concurrent split
     or merge can move the separators out from under us; every further CaS
     on the parent below is then guaranteed to succeed. All other failures
     roll back cleanly. *)
  and merge_node t ~tid id (_head : elem) parent_path =
    match parent_path with
    | [] -> () (* the root does not merge *)
    | pid :: _ ->
        let phead = mt_get t ~tid pid in
        if head_is_append_blocked phead then ()
        else begin
          let pr = range_of phead
          and psize = size_of phead
          and pdepth = depth_of phead in
          let abort_d =
            ID
              { range = pr; next = phead; size = psize; depth = pdepth + 1;
                op = I_abort }
          in
          if not (mt_cas t ~tid pid ~expect:phead ~repl:abort_d) then
            cnt t.o tid Bw_obs.C_delta_cas_failures
          else begin
            let unlock_parent () =
              let ok = mt_cas t ~tid pid ~expect:abort_d ~repl:phead in
              assert ok
            in
            (* re-read our node under the parent lock *)
            let nhead = mt_get t ~tid id in
            let nr = range_of nhead
            and nsize = size_of nhead
            and ndepth = depth_of nhead in
            let give_up () = unlock_parent () in
            if
              head_is_append_blocked nhead
              || head_is_split_topped nhead
              || nsize >= t.cfg.leaf_min
                 && is_leaf_elem nhead
              || nsize >= t.cfg.inner_min
                 && not (is_leaf_elem nhead)
            then give_up ()
            else
              match nr.lo with
              | Neg_inf | Pos_inf -> give_up () (* leftmost: no left sibling *)
              | B merge_key -> (
                  (* locate our separator and our left sibling in the
                     write-locked parent *)
                  let items = gather_inner t.o ~tid phead in
                  let n = Growable.length items in
                  let idx = ref (-1) in
                  for i = 0 to n - 1 do
                    if snd (Growable.get items i) = id then idx := i
                  done;
                  if !idx <= 0 then give_up ()
                  else begin
                    let k0, lid = Growable.get items (!idx - 1) in
                    let k1 = fst (Growable.get items !idx) in
                    if cmp_bound k1 (B merge_key) <> 0 then give_up ()
                    else begin
                      let k2 =
                        if !idx + 1 < n then fst (Growable.get items (!idx + 1))
                        else pr.hi
                      in
                      (* Stage I: remove delta on the victim *)
                      let rem =
                        let depth = ndepth + 1 in
                        if is_leaf_elem nhead then
                          LSmo
                            { range = nr; next = nhead; size = nsize; depth;
                              op = L_remove }
                        else
                          ID
                            { range = nr; next = nhead; size = nsize; depth;
                              op = I_remove }
                      in
                      if not (mt_cas t ~tid id ~expect:nhead ~repl:rem) then begin
                        cnt t.o tid Bw_obs.C_delta_cas_failures;
                        give_up ()
                      end
                      else begin
                        let undo_remove () =
                          let ok = mt_cas t ~tid id ~expect:rem ~repl:nhead in
                          assert ok
                        in
                        (* Stage II: merge delta on the left sibling *)
                        let lhead = mt_get t ~tid lid in
                        let lr = range_of lhead in
                        if
                          head_is_append_blocked lhead
                          || cmp_bound lr.hi (B merge_key) <> 0
                          || lr.right <> id
                          || is_leaf_elem lhead <> is_leaf_elem nhead
                        then begin
                          undo_remove ();
                          give_up ()
                        end
                        else begin
                          let range = { lo = lr.lo; hi = nr.hi; right = nr.right }
                          and size = size_of lhead + nsize
                          and depth = depth_of lhead + 1 in
                          let merge_d =
                            if is_leaf_elem lhead then
                              LSmo
                                { range; next = lhead; size; depth;
                                  op = L_merge (merge_key, nhead, id) }
                            else
                              ID
                                { range; next = lhead; size; depth;
                                  op = I_merge (merge_key, nhead, id) }
                          in
                          if not (mt_cas t ~tid lid ~expect:lhead ~repl:merge_d)
                          then begin
                            cnt t.o tid Bw_obs.C_delta_cas_failures;
                            undo_remove ();
                            give_up ()
                          end
                          else begin
                            (* Stage III: atomically drop the ∆abort and
                               post the separator delete *)
                            let del_d =
                              ID
                                { range = pr; next = phead; size = psize - 1;
                                  depth = pdepth + 1;
                                  op = I_del (merge_key, k0, lid, k2) }
                            in
                            let ok =
                              mt_cas t ~tid pid ~expect:abort_d ~repl:del_d
                            in
                            assert ok;
                            if Bw_obs.enabled t.o then begin
                              Bw_obs.incr t.o ~tid Bw_obs.C_merges;
                              Bw_obs.event t.o ~tid Bw_obs.Ev_merge ~a:id
                                ~b:lid
                            end;
                            (* The removed node's id stays allocated: a
                               concurrent reader may still hold it, and id
                               recycling would require epoch-deferred
                               frees. The mapping table entry itself is
                               one word. *)
                            ignore k1;
                            (* housekeeping for the parent: consolidate a
                               long chain, cascade the merge upward on
                               underflow, or shrink the tree when the
                               root is down to a single inner child *)
                            let rest = List.tl parent_path in
                            if psize - 1 < t.cfg.inner_min && rest <> [] then
                              merge_node t ~tid pid del_d rest
                            else if rest = [] && psize - 1 = 1 then
                              collapse_root t ~tid pid
                            else if pdepth + 1 >= t.cfg.inner_chain_max then
                              consolidate t ~tid pid del_d
                          end
                        end
                      end
                    end
                  end)
          end
        end

  (* ---------------------------------------------------------------- *)
  (* Descent                                                           *)
  (* ---------------------------------------------------------------- *)

  (* The one descent, for reads and writes: walk from node [id] down to
     the leaf logical node owning [k], helping unfinished SMOs along the
     way (the help-along protocol, §2.4). Returns the leaf's head; its id
     goes to the thread's cursor.

     [path] holds [id]'s ancestors' ids, nearest first (empty at the
     root). A tracking descent ([track], the write path) extends it at
     every level and leaves it in the cursor for SMO housekeeping. A read
     does not build it: it carries only the current parent's id ([pid];
     [nil_id] at the root level), which is all help-along needs to post
     a separator — a cascading parent split then completes through
     [complete_split_for]. So a read descent allocates nothing unless it
     helps.

     The batch path re-enters here from a cached ancestor; if that
     ancestor has since been merged away its head carries a remove delta
     and the walk restarts from the root. *)
  let rec descend t ~tid ~track k id path pid =
    cnt t.o tid Bw_obs.C_node_visits;
    let head = mt_get t ~tid id in
    (match head with
    | LSmo { op = L_split (ks, rid, fin); _ }
    | ID { op = I_split (ks, rid, fin); _ }
      when not (Atomic.get fin) ->
        (* unfinished half-split at the head: help post the separator
           before traversing (best effort; Restart on interference) *)
        cnt t.o tid Bw_obs.C_smo_helps;
        let parent_path = if track || pid = nil_id then path else [ pid ] in
        post_split_separator t ~tid ~parent_path ~left_id:id ~ks ~rid ~fin
    | LSmo { op = L_remove; _ } | ID { op = I_remove; _ } ->
        (* node being merged away: its merging thread is mid-protocol;
           back off and retry from the root *)
        raise Restart
    | _ -> ());
    let r = range_of head in
    if kb k r.hi >= 0 && r.right <> nil_id then
      (* B-link right move: the split separator may not be posted yet *)
      descend t ~tid ~track k r.right path pid
    else if is_leaf_elem head then begin
      let c = t.cur.(tid) in
      c.c_id <- id;
      if track then c.c_path <- path;
      head
    end
    else
      let nav = inner_nav t.o ~tid head k in
      if nav >= 0 then
        descend t ~tid ~track k nav (if track then id :: path else path) id
      else descend t ~tid ~track k (right_of nav) path pid

  (* From-root descent: the leaf head, its id (and path) in the cursor. *)
  let descend_root t ~tid ~track k =
    descend t ~tid ~track k (Atomic.get t.root) [] nil_id

  (* Tie the forward knot: consolidation (defined before the descent)
     completes a head split's Stage III by descending for the split key
     until a traversal runs clean. Recursion through the ref is bounded
     by tree height: the descent's own help-along may consolidate
     ancestors, whose pending splits sit one level up. *)
  let () =
    complete_split_for :=
      fun t ~tid k fin ->
        let rec go () =
          match descend_root t ~tid ~track:true k with
          | _ -> mark_done fin
          | exception Restart ->
              count_restart t ~tid;
              go ()
        in
        go ()

  (* ---------------------------------------------------------------- *)
  (* Leaf probing (existence / visibility, §3.1 + §4.4)                *)
  (* ---------------------------------------------------------------- *)

  (* Shared base-node search: clamp the §4.4 shortcut range to the page
     and run the one {!Leaf_page} lower bound. The search's deterministic
     comparison bound is charged to [key_compares] and, as the in-leaf
     share of them, to [leaf_probe_cmps]. *)
  let base_search t ~tid pg k ~smin ~smax =
    let n = P.length pg in
    let ss = t.cfg.search_shortcuts in
    let lo0 = if not ss then 0 else if smin < n then smin else n in
    let hi0 = if (not ss) || smax > n then n else smax in
    (* an inverted range means stale offsets: search the whole page *)
    let inverted = lo0 > hi0 in
    let lo0 = if inverted then 0 else lo0 in
    let hi0 = if inverted then n else hi0 in
    (match t.o with
    | Bw_obs.Null -> ()
    | Bw_obs.To _ as o ->
        let cost = P.search_cost_n (hi0 - lo0) in
        Bw_obs.add o ~tid Bw_obs.C_key_compares cost;
        Bw_obs.add o ~tid Bw_obs.C_leaf_probe_cmps cost);
    P.lower_bound_in pg k ~lo:lo0 ~hi:hi0

  (* Unique-key leaf walk (§3.1: stops at the first delta carrying the
     key) — the one probe behind point reads, batch reads and the write
     cores. Returns the visible value; a loop over local mutable state,
     so it allocates nothing but the [Some]. Side results go to the
     thread's cursor: the §4.3 base offset for a delta the caller may
     append, and how many delta records the walk crossed (the read-side
     consolidation budget). The comparison that tests each delta's key
     also narrows the §4.4 shortcut range over the base. A slab run is
     walked through its predecessor links inside the slab's arrays: one
     dependent load to reach the slab, then index steps. *)
  let leaf_find_unique t ~tid (head : elem) k : value option =
    let e = ref head in
    let res = ref None in
    let smin = ref 0 and smax = ref max_int in
    (* the walk crossed a merge delta: recorded offsets no longer describe
       the base it will search *)
    let poisoned = ref false in
    let off = ref (-1) in
    let walked = ref 0 in
    let fin = ref false in
    while not !fin do
      match !e with
      | ( LIns { key = k'; next; offset = o; _ }
        | LUpd { key = k'; next; offset = o; _ }
        | LDel { key = k'; next; offset = o; _ } ) as d ->
          incr walked;
          cnt t.o tid Bw_obs.C_ptr_derefs;
          cnt t.o tid Bw_obs.C_key_compares;
          let c = K.compare k k' in
          if c = 0 then begin
            (match d with
            | LIns { v; _ } | LUpd { vnew = v; _ } -> res := Some v
            | _ -> ());
            off := if !poisoned then -1 else o;
            fin := true
          end
          else begin
            (if t.cfg.search_shortcuts && o >= 0 then
               if c > 0 then (if o > !smin then smin := o)
               else if o < !smax then smax := o);
            e := next
          end
      | LSmo { op = L_split _ | L_remove; next; _ } ->
          (* keys >= a split key moved right; the descent already
             ensured k < it *)
          incr walked;
          cnt t.o tid Bw_obs.C_ptr_derefs;
          e := next
      | LSmo { op = L_merge (km, right, _); next; _ } ->
          incr walked;
          cnt t.o tid Bw_obs.C_ptr_derefs;
          cnt t.o tid Bw_obs.C_key_compares;
          poisoned := true;
          e := if K.compare k km >= 0 then right else next
      | LSlab { slab; slot; below; _ } ->
          cnt t.o tid Bw_obs.C_ptr_derefs;
          let keys = slab.Leaf_page.skeys and meta = slab.Leaf_page.smeta in
          let i = ref slot in
          while !i >= 0 do
            let m = meta.(!i) in
            incr walked;
            cnt t.o tid Bw_obs.C_key_compares;
            let c = K.compare k keys.(!i) in
            let o = Leaf_page.meta_offset m in
            if c = 0 then begin
              if Leaf_page.meta_kind m <> Leaf_page.kind_del then
                res := Some slab.Leaf_page.svals.(!i);
              off := if !poisoned then -1 else o;
              fin := true;
              i := -1
            end
            else begin
              (if t.cfg.search_shortcuts && o >= 0 then
                 if c > 0 then (if o > !smin then smin := o)
                 else if o < !smax then smax := o);
              i := Leaf_page.meta_pred m
            end
          done;
          if not !fin then e := below
      | Leaf b ->
          let pg = b.lb_page in
          let pos = base_search t ~tid pg k ~smin:!smin ~smax:!smax in
          off := if !poisoned then -1 else pos;
          let kc = P.keys pg in
          if pos < Array.length kc && K.compare (Array.unsafe_get kc pos) k = 0
          then res := Some (Array.unsafe_get (P.values pg) pos);
          fin := true
      | Inner _ | ID _ -> assert false
    done;
    let c = t.cur.(tid) in
    c.c_offset <- !off;
    c.c_walked <- !walked;
    !res

  (* Non-unique probe: the visible values of [k], newest first, from the
     S_present/S_deleted multisets gathered walking new-to-old (the §3.1
     visibility rule; multiset variant, see consolidate_leaf_chain). The
     §4.3 offset for a delta the caller may append goes to the cursor. *)
  let probe_leaf_sets t ~tid (head : elem) k : value list =
    let pres : value Growable.t = Growable.create () in
    let dels : value Growable.t = Growable.create () in
    (* consume one pending delete of [v]; false if none *)
    let take_pending v =
      let n = Growable.length dels in
      let rec go i =
        if i >= n then false
        else if V.equal (Growable.get dels i) v then begin
          Growable.remove_at dels i;
          true
        end
        else go (i + 1)
      in
      go 0
    in
    let smin = ref 0 and smax = ref max_int in
    (* narrow the shortcut range by a delta at base offset [o] whose key
       compares [c] against [k] *)
    let narrow o c =
      if t.cfg.search_shortcuts && o >= 0 then
        if c = 0 then begin
          smin := o;
          smax := o
        end
        else if c > 0 then (if o > !smin then smin := o)
        else if o < !smax then smax := o
    in
    let delta_offset = ref (-1) in
    let note_offset o = if !delta_offset = -1 then delta_offset := o in
    (* compare [k] with a data delta's key [k'] at base offset [o]:
       narrow the shortcut range, and on a match record [o] *)
    let probe k' o =
      let c = K.compare k k' in
      cnt t.o tid Bw_obs.C_key_compares;
      narrow o c;
      if c = 0 then note_offset o;
      c = 0
    in
    (* a data delta of [k], newest first *)
    let visit kind v vold =
      if kind = Leaf_page.kind_del then Growable.push dels v
      else begin
        if not (take_pending v) then Growable.push pres v;
        if kind = Leaf_page.kind_upd then Growable.push dels vold
      end
    in
    let rec walk e =
      match e with
      | LSlab { slab = s; slot; below; _ } ->
          cnt t.o tid Bw_obs.C_ptr_derefs;
          let i = ref slot in
          while !i >= 0 do
            let m = s.Leaf_page.smeta.(!i) in
            if probe s.Leaf_page.skeys.(!i) (Leaf_page.meta_offset m) then
              visit (Leaf_page.meta_kind m) s.Leaf_page.svals.(!i)
                (Leaf_page.slot_old s !i);
            i := Leaf_page.meta_pred m
          done;
          walk below
      | LIns d ->
          cnt t.o tid Bw_obs.C_ptr_derefs;
          if probe d.key d.offset then visit Leaf_page.kind_ins d.v d.v;
          walk d.next
      | LDel d ->
          cnt t.o tid Bw_obs.C_ptr_derefs;
          if probe d.key d.offset then visit Leaf_page.kind_del d.v d.v;
          walk d.next
      | LUpd d ->
          cnt t.o tid Bw_obs.C_ptr_derefs;
          if probe d.key d.offset then visit Leaf_page.kind_upd d.vnew d.vold;
          walk d.next
      | LSmo { op = L_split _ | L_remove; next; _ } ->
          cnt t.o tid Bw_obs.C_ptr_derefs;
          walk next
      | LSmo { op = L_merge (km, right, _); next; _ } ->
          cnt t.o tid Bw_obs.C_ptr_derefs;
          cnt t.o tid Bw_obs.C_key_compares;
          delta_offset := -2;
          if K.compare k km >= 0 then walk right else walk next
      | Leaf b ->
          let pg = b.lb_page in
          let n = P.length pg in
          let pos = base_search t ~tid pg k ~smin:!smin ~smax:!smax in
          let base_vals = ref [] in
          let i = ref pos in
          while !i < n && K.compare (P.key pg !i) k = 0 do
            base_vals := P.value pg !i :: !base_vals;
            incr i
          done;
          t.cur.(tid).c_offset <-
            (if !delta_offset = -2 then -1
             else if !delta_offset >= 0 then !delta_offset
             else pos);
          let surviving_base =
            List.filter (fun v -> not (take_pending v)) !base_vals
          in
          (Growable.to_array pres |> Array.to_list) @ surviving_base
      | Inner _ | ID _ -> assert false
    in
    walk head

  (* ---------------------------------------------------------------- *)
  (* Epoch bracket and retry loop                                      *)
  (* ---------------------------------------------------------------- *)

  (* For the iterators and maintenance walks; the point ops and the
     batch path bracket inline, without the closure. *)
  let with_epoch t ~tid f =
    cnt t.o tid Bw_obs.C_epoch_enters;
    Epoch.op_begin t.epoch ~tid;
    match f () with
    | x ->
        Epoch.op_end t.epoch ~tid;
        x
    | exception e ->
        Epoch.op_end t.epoch ~tid;
        raise e

  let rec retry_loop t ~tid f =
    match f () with
    | x -> x
    | exception Restart ->
        count_restart t ~tid;
        retry_loop t ~tid f

  (* Record one public operation's wall time and how many root restarts it
     took. With the null sink this is the one extra branch the ISSUE's
     overhead budget allows; with a live sink it reads the clock twice and
     writes only this thread's stripe. *)
  let timed t ~tid series f =
    match t.o with
    | Bw_obs.Null -> f ()
    | Bw_obs.To _ as s ->
        let t0 = Bw_obs.now_ns () in
        let c = t.cur.(tid) in
        let r0 = c.c_restarts in
        let x = f () in
        Bw_obs.observe s ~tid series (Bw_obs.now_ns () - t0);
        Bw_obs.observe s ~tid Bw_obs.Val_op_restarts (c.c_restarts - r0);
        x

  (* ---------------------------------------------------------------- *)
  (* Leaf writes                                                       *)
  (* ---------------------------------------------------------------- *)

  (* Housekeeping after a successful delta append. The operation is
     already linearized, so interference here (failed CaS inside a split's
     Stage III, a blocked parent) must NOT replay it: unfinished SMOs are
     completed by help-along on later traversals (§2.4). Returns the head
     this thread last installed at [id] — the split delta or new base
     when housekeeping posted one, else [head] — so a batch carries on
     from it rather than CaS-ing against a head it superseded itself. *)
  let post_append_leaf t ~tid id (head : elem) parent_path ~check_underflow =
    let size = size_of head in
    match
      if size > t.cfg.leaf_max then split_node t ~tid id head parent_path
      else if depth_of head >= t.cfg.leaf_chain_max then
        try_consolidate t ~tid id head
      else begin
        if check_underflow && size < t.cfg.leaf_min then
          merge_node t ~tid id head parent_path;
        head
      end
    with
    | h -> h
    | exception Restart -> head

  (* §6.3 "disable delta updates": rewrite the leaf base copy-on-write
     instead of appending a delta. Only valid when the chain is a bare
     base (single-threaded experiments consolidate eagerly); [no_leaf]
     when it is not. *)
  let try_inplace_insert t ~tid id (head : elem) parent_path k v =
    match head with
    | Leaf b ->
        let pg = b.lb_page in
        let pos = lower_bound t.o ~tid pg k in
        let repl = Leaf { b with lb_page = P.with_inserted pg pos k v } in
        if not (mt_cas t ~tid id ~expect:head ~repl) then begin
          cnt t.o tid Bw_obs.C_delta_cas_failures;
          raise Restart
        end;
        post_append_leaf t ~tid id repl parent_path ~check_underflow:false
    | _ -> no_leaf

  (* Append a data delta of [kind] on [head] (leaf [id]): key [k], value
     [v] (the new value, or the one a delete removes), [vold] the value an
     update replaces, [step] its change to the node's size. The delta
     shares [head]'s range record and extends its depth by one; its §4.3
     offset is the one the probe left in the cursor. *)
  let append_data t ~tid id head parent_path ~kind ~step k v vold
      ~check_underflow =
    if head_is_append_blocked head then raise Restart;
    let offset = t.cur.(tid).c_offset in
    let d =
      if t.cfg.preallocate then
        slab_delta t ~tid id head ~kind ~step ~offset k v vold
      else heap_delta head ~kind ~step ~offset k v vold
    in
    cnt t.o tid Bw_obs.C_allocations;
    if not (mt_cas t ~tid id ~expect:head ~repl:d) then begin
      cnt t.o tid Bw_obs.C_delta_cas_failures;
      (match d with
      | LSlab { slab; _ } -> ignore (Atomic.fetch_and_add slab.Leaf_page.wasted 1)
      | _ -> ());
      raise Restart
    end;
    let h = post_append_leaf t ~tid id d parent_path ~check_underflow in
    t.cur.(tid).c_ok <- true;
    h

  (* The write cores work on the leaf a descent just left in the cursor
     (its id and its ancestor path), so the point ops and the batch path
     (which loads its cached traversal into the cursor) share one copy
     of the delta-append protocol. Each returns the head under which its
     outcome is current — what [post_append_leaf] reports after an
     append, the probed head on a no-op — so the batch path keeps
     probing without re-reading the mapping-table slot; the point-op
     boolean goes to [c_ok]. *)
  let no_op c head =
    c.c_ok <- false;
    head

  let insert_core t ~tid head k v =
    let c = t.cur.(tid) in
    let id = c.c_id and path = c.c_path in
    let duplicate =
      if t.cfg.unique_keys then
        match leaf_find_unique t ~tid head k with Some _ -> true | None -> false
      else List.exists (V.equal v) (probe_leaf_sets t ~tid head k)
    in
    if duplicate then no_op c head
    else
      let repl =
        if t.cfg.inplace_leaf_update then
          try_inplace_insert t ~tid id head path k v
        else no_leaf
      in
      if repl != no_leaf then begin
        c.c_ok <- true;
        repl
      end
      else
        append_data t ~tid id head path ~kind:Leaf_page.kind_ins ~step:1 k v v
          ~check_underflow:false

  let delete_core t ~tid head k v =
    let c = t.cur.(tid) in
    let id = c.c_id and path = c.c_path in
    let victim =
      if t.cfg.unique_keys then leaf_find_unique t ~tid head k
      else if List.exists (V.equal v) (probe_leaf_sets t ~tid head k) then
        Some v
      else None
    in
    match victim with
    | None -> no_op c head
    | Some victim ->
        append_data t ~tid id head path ~kind:Leaf_page.kind_del ~step:(-1) k
          victim victim ~check_underflow:true

  let update_core t ~tid head k v =
    let c = t.cur.(tid) in
    let id = c.c_id and path = c.c_path in
    (* the value replaced: the newest visible one *)
    let current =
      if t.cfg.unique_keys then leaf_find_unique t ~tid head k
      else match probe_leaf_sets t ~tid head k with v :: _ -> Some v | [] -> None
    in
    match current with
    | None -> no_op c head
    | Some vold ->
        append_data t ~tid id head path ~kind:Leaf_page.kind_upd ~step:0 k v
          vold ~check_underflow:false

  (* ---------------------------------------------------------------- *)
  (* Point operations                                                  *)
  (* ---------------------------------------------------------------- *)

  (* One point op, read or write: [step t ~tid head k x] on the leaf
     owning [k], whose id (and, when [track], ancestor path) is in the
     cursor. Written without closures — the retry loop is a recursive
     function, the epoch bracket an exception match and [step] a
     top-level function — so the bracket allocates nothing. *)
  let rec op_retry t ~tid ~track k x step =
    match step t ~tid (descend_root t ~tid ~track k) k x with
    | r -> r
    | exception Restart ->
        count_restart t ~tid;
        op_retry t ~tid ~track k x step

  let op_body t ~tid ~track k x step =
    cnt t.o tid Bw_obs.C_epoch_enters;
    Epoch.op_begin t.epoch ~tid;
    match op_retry t ~tid ~track k x step with
    | r ->
        Epoch.op_end t.epoch ~tid;
        r
    | exception e ->
        Epoch.op_end t.epoch ~tid;
        raise e

  let write_body t ~tid k v core =
    ignore (op_body t ~tid ~track:true k v core);
    t.cur.(tid).c_ok

  (* Read-side consolidation budget: charge the delta records this read
     walked to the thread's running count; once it reaches [leaf_max],
     rebuild the leaf the read is on and start over. A rebuild costs
     O(leaf_max) item moves, so rebuild work stays proportional to the
     chain walking it saves. A lost race (stale head, concurrent SMO)
     simply spends the budget. *)
  let read_budget t ~tid head =
    let c = t.cur.(tid) in
    let n = c.c_read_walk + c.c_walked in
    if n < t.cfg.leaf_max then c.c_read_walk <- n
    else begin
      c.c_read_walk <- 0;
      match try_consolidate t ~tid c.c_id head with
      | h when h != head -> cnt t.o tid Bw_obs.C_read_consolidations
      | _ -> ()
      | exception Restart -> ()
    end

  (* The leaf probes a point read can run besides [leaf_find_unique]:
     [t -> tid -> head -> key -> result], all top-level functions so
     passing one allocates nothing. The non-unique ones charge the chain
     depth to the budget (their multiset walk crosses the whole chain). *)
  let lookup_unique t ~tid head k =
    match leaf_find_unique t ~tid head k with Some v -> [ v ] | None -> []

  let lookup_sets t ~tid head k =
    t.cur.(tid).c_walked <- depth_of head;
    probe_leaf_sets t ~tid head k

  let find_sets t ~tid head k =
    match lookup_sets t ~tid head k with v :: _ -> Some v | [] -> None

  (* A point read's step: [probe] on the leaf, then the budget. *)
  let read_step t ~tid head k probe =
    if Bw_obs.enabled t.o then
      Bw_obs.observe t.o ~tid Bw_obs.Val_chain_depth (depth_of head);
    let r = probe t ~tid head k in
    if t.cfg.read_consolidation then read_budget t ~tid head;
    r

  let read_body t ~tid k probe = op_body t ~tid ~track:false k probe read_step

  (* Public write/read entry points: the null-sink path must not even
     allocate the thunk [timed] would take, so the branch happens here
     and the instrumented arm counts the op and builds its closure only
     when a registry is attached. *)
  let insert t ?(tid = 0) k v =
    match t.o with
    | Bw_obs.Null -> write_body t ~tid k v insert_core
    | Bw_obs.To _ as o ->
        Bw_obs.incr o ~tid Bw_obs.C_inserts;
        timed t ~tid Bw_obs.Lat_insert (fun () ->
            write_body t ~tid k v insert_core)

  let delete t ?(tid = 0) k v =
    match t.o with
    | Bw_obs.Null -> write_body t ~tid k v delete_core
    | Bw_obs.To _ as o ->
        Bw_obs.incr o ~tid Bw_obs.C_deletes;
        timed t ~tid Bw_obs.Lat_delete (fun () ->
            write_body t ~tid k v delete_core)

  let update t ?(tid = 0) k v =
    match t.o with
    | Bw_obs.Null -> write_body t ~tid k v update_core
    | Bw_obs.To _ as o ->
        Bw_obs.incr o ~tid Bw_obs.C_updates;
        timed t ~tid Bw_obs.Lat_update (fun () ->
            write_body t ~tid k v update_core)

  let read t ~tid k probe =
    match t.o with
    | Bw_obs.Null -> read_body t ~tid k probe
    | Bw_obs.To _ as o ->
        Bw_obs.incr o ~tid Bw_obs.C_lookups;
        timed t ~tid Bw_obs.Lat_lookup (fun () -> read_body t ~tid k probe)

  let lookup t ?(tid = 0) k =
    read t ~tid k (if t.cfg.unique_keys then lookup_unique else lookup_sets)

  let find t ?(tid = 0) k =
    read t ~tid k (if t.cfg.unique_keys then leaf_find_unique else find_sets)

  let upsert t ?(tid = 0) k v =
    if not (update t ~tid k v) then ignore (insert t ~tid k v)

  let mem t ?(tid = 0) k = lookup t ~tid k <> []

  (* ---------------------------------------------------------------- *)
  (* Batch execution                                                   *)
  (* ---------------------------------------------------------------- *)

  type batch_op =
    | B_insert of value
    | B_update of value
    | B_upsert of value
    | B_delete of value
    | B_get

  type batch_result = R_applied of bool | R_values of value list

  let r_true = R_applied true
  let r_false = R_applied false
  let r_absent = R_values []
  let applied ok = if ok then r_true else r_false

  (* A batched read's answer, straight off the unique walk when it can. *)
  let batch_get t ~tid head k =
    if Bw_obs.enabled t.o then
      Bw_obs.observe t.o ~tid Bw_obs.Val_chain_depth (depth_of head);
    if t.cfg.unique_keys then
      match leaf_find_unique t ~tid head k with
      | Some v -> R_values [ v ]
      | None -> r_absent
    else match probe_leaf_sets t ~tid head k with [] -> r_absent | vs -> R_values vs

  (* Re-descend for [k] from the nearest ancestor in [path] whose current
     range covers it (its own staleness is repaired by the B-link right
     moves and the remove-delta Restart inside [descend]), or from the
     root when none does. The leaf id and path go to the cursor. *)
  let rec batch_descend t ~tid k = function
    | [] -> descend_root t ~tid ~track:true k
    | aid :: up ->
        let r = range_of (mt_get t ~tid aid) in
        if kb k r.lo >= 0 && kb k r.hi < 0 then
          descend t ~tid ~track:true k aid up nil_id
        else batch_descend t ~tid k up

  (* Walk the key-sorted permutation left to right, reusing the previous
     traversal while keys stay inside the cached leaf's separator range.
     The cached head is the one this thread last saw or installed: its
     own appended delta, the split delta or base its housekeeping posted,
     or a snapshot a concurrent writer has since replaced. Reads then see
     a consistent chain that existed within our epoch, and writes CaS
     against the cached head, so only interference surfaces as a failed
     CaS -> Restart, which drops the cached traversal and re-descends
     from the root. The traversal lives in mutable locals and the op
     dispatch is inline, so a batched op allocates only what it
     publishes or returns. Returns how many descents beyond the first
     the batch needed. *)
  let exec_batch_body t ~tid (ops : (key * batch_op) array) perm n
      (results : batch_result array) =
    let c = t.cur.(tid) in
    (* the cached traversal: leaf [id] at [head] ([no_leaf]: none), its
       ancestors [path] *)
    let head = ref no_leaf and id = ref nil_id and path = ref [] in
    (* skewed batches repeat hot keys; sorted order makes the repeats
       adjacent, so one probe serves the whole run of duplicates as long
       as the chain head is physically unchanged (any interleaved write
       to the leaf swings the head and forces a fresh probe) *)
    let get_head = ref no_leaf
    and get_key = ref (fst ops.(perm.(0)))
    and get_r = ref r_absent in
    let locates = ref 0 in
    for j = 0 to n - 1 do
      let i = perm.(j) in
      let k, op = ops.(i) in
      let pending = ref true in
      while !pending do
        match
          (let r = range_of !head in
           if !head == no_leaf || kb k r.lo < 0 || kb k r.hi >= 0 then begin
             incr locates;
             head := batch_descend t ~tid k !path;
             id := c.c_id;
             path := c.c_path
           end);
          (* the write cores take the leaf from the cursor; a no-op core
             leaves it there, so an upsert's insert finds it too *)
          c.c_id <- !id;
          c.c_path <- !path;
          match op with
          | B_get ->
              if !get_head == !head && K.compare !get_key k = 0 then !get_r
              else begin
                let r = batch_get t ~tid !head k in
                get_head := !head;
                get_key := k;
                get_r := r;
                r
              end
          | B_insert v ->
              head := insert_core t ~tid !head k v;
              applied c.c_ok
          | B_update v ->
              head := update_core t ~tid !head k v;
              applied c.c_ok
          | B_delete v ->
              head := delete_core t ~tid !head k v;
              applied c.c_ok
          | B_upsert v ->
              head := update_core t ~tid !head k v;
              if c.c_ok then r_true
              else begin
                head := insert_core t ~tid !head k v;
                applied c.c_ok
              end
        with
        | r ->
            results.(i) <- r;
            pending := false
        | exception Restart ->
            (* the cached traversal is the suspect: drop it so the retry
               re-descends from the root instead of spinning on the same
               snapshot *)
            count_restart t ~tid;
            head := no_leaf;
            path := []
      done
    done;
    max 0 (!locates - 1)

  (* Batch order: by key, submission index breaking ties — a total
     order, so duplicate keys execute in submission order. *)
  let perm_cmp (ops : (key * batch_op) array) i j =
    let c = K.compare (fst (Array.unsafe_get ops i)) (fst (Array.unsafe_get ops j)) in
    if c <> 0 then c else i - j

  let swap (a : int array) i j =
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x

  (* Sort [perm.(lo) .. perm.(hi - 1)] in place without allocating (the
     stdlib heap sort allocates an exception per sift): quicksort with a
     median-of-three pivot, insertion sort on short ranges. *)
  let rec sort_perm ops perm lo hi =
    if hi - lo <= 16 then
      for i = lo + 1 to hi - 1 do
        let x = perm.(i) in
        let j = ref (i - 1) in
        while !j >= lo && perm_cmp ops perm.(!j) x > 0 do
          perm.(!j + 1) <- perm.(!j);
          decr j
        done;
        perm.(!j + 1) <- x
      done
    else begin
      let mid = lo + ((hi - lo) / 2) in
      if perm_cmp ops perm.(mid) perm.(lo) < 0 then swap perm mid lo;
      if perm_cmp ops perm.(hi - 1) perm.(lo) < 0 then swap perm (hi - 1) lo;
      if perm_cmp ops perm.(hi - 1) perm.(mid) < 0 then swap perm (hi - 1) mid;
      (* the ends now bracket the pivot, so the scans stay in range *)
      let pivot = perm.(mid) in
      let i = ref lo and j = ref (hi - 1) in
      while !i <= !j do
        while perm_cmp ops perm.(!i) pivot < 0 do
          incr i
        done;
        while perm_cmp ops perm.(!j) pivot > 0 do
          decr j
        done;
        if !i <= !j then begin
          swap perm !i !j;
          incr i;
          decr j
        end
      done;
      sort_perm ops perm lo (!j + 1);
      sort_perm ops perm !i hi
    end

  let execute_batch t ?(tid = 0) (ops : (key * batch_op) array) =
    let n = Array.length ops in
    if n = 0 then [||]
    else begin
      (match t.o with
      | Bw_obs.Null -> ()
      | Bw_obs.To _ as o ->
          Array.iter
            (fun (_, op) ->
              Bw_obs.incr o ~tid
                (match op with
                | B_insert _ -> Bw_obs.C_inserts
                | B_update _ | B_upsert _ -> Bw_obs.C_updates
                | B_delete _ -> Bw_obs.C_deletes
                | B_get -> Bw_obs.C_lookups))
            ops);
      let perm =
        let p = t.bperm.(tid) in
        if Array.length p >= n then p
        else begin
          let p = Array.make n 0 in
          t.bperm.(tid) <- p;
          p
        end
      in
      for i = 0 to n - 1 do
        perm.(i) <- i
      done;
      sort_perm ops perm 0 n;
      let results = Array.make n r_false in
      cnt t.o tid Bw_obs.C_epoch_enters;
      Epoch.op_begin t.epoch ~tid;
      let redescents =
        match exec_batch_body t ~tid ops perm n results with
        | r ->
            Epoch.op_end t.epoch ~tid;
            r
        | exception e ->
            Epoch.op_end t.epoch ~tid;
            raise e
      in
      if Bw_obs.enabled t.o then begin
        Bw_obs.observe t.o ~tid Bw_obs.Val_batch_size n;
        Bw_obs.add t.o ~tid Bw_obs.C_batch_redescents redescents
      end;
      results
    end

  (* ---------------------------------------------------------------- *)
  (* Iterators (§3.2, Appendix C)                                      *)
  (* ---------------------------------------------------------------- *)

  (* Materialize a leaf head as one page, without touching the tree.
     Fully consolidated leaves are handed out zero-copy (pages are
     immutable); chains go through the single-merge path, which leaves
     the base untouched. *)
  let snapshot_leaf_page t ~tid (head : elem) =
    match head with
    | Leaf b -> b.lb_page
    | _ -> (
        match
          (* the §4.3 segment merge is much cheaper than the general
             replay and applies to any chain of plain data deltas *)
          if t.cfg.fast_consolidation then consolidate_leaf_chain t ~tid head
          else None
        with
        | Some page -> page
        | None -> P.build (Growable.to_array (gather_leaf t ~tid head)))

  (* A scan's page for the leaf [id] whose head it read. A chained leaf
     costs a full merge either way; with [read_consolidation] on, the
     scan publishes that merge through the writers' [try_consolidate]
     (same CaS, same epoch retirement) and reads the installed base
     zero-copy, so later scans of this leaf version get it free too. A
     lost race, a head that cannot be consolidated, or a [Restart] from
     completing a pending split falls back to the private copy. *)
  let scan_leaf_page t ~tid id (head : elem) =
    match head with
    | Leaf b -> b.lb_page
    | _ -> (
        match
          if t.cfg.read_consolidation then try_consolidate t ~tid id head
          else head
        with
        | Leaf b as h when h != head ->
            cnt t.o tid Bw_obs.C_read_consolidations;
            b.lb_page
        | _ -> snapshot_leaf_page t ~tid head
        | exception Restart -> snapshot_leaf_page t ~tid head)

  module Iterator = struct
    (* An iterator holds a consolidated page of one logical leaf node
       ([scan_leaf_page]: the installed base, or a private copy); no
       locks are held between moves. Exhausting the copy
       re-traverses from the root using the node's high key (forward) or
       low key with the go-left rule (backward). *)
    type iter = {
      tree : t;
      tid : int;
      mutable items : P.t;
      mutable lo : bound;
      mutable hi : bound;
      (* cursor into [items]. pos = -1 with lo = -inf means "before the
         first item"; pos = length with hi = +inf means "after the last";
         both are restartable: next/prev from an exhausted end steps back
         into the data. *)
      mutable pos : int;
    }

    let snapshot_node t ~tid k =
      retry_loop t ~tid @@ fun () ->
      let head = descend_root t ~tid ~track:false k in
      let r = range_of head in
      (scan_leaf_page t ~tid t.cur.(tid).c_id head, r.lo, r.hi)

    (* first item >= k, possibly skipping empty nodes to the right *)
    let rec position_forward it k =
      let items, lo, hi = snapshot_node it.tree ~tid:it.tid k in
      it.items <- items;
      it.lo <- lo;
      it.hi <- hi;
      let n = P.length items in
      let pos = lower_bound it.tree.o ~tid:it.tid items k in
      if pos < n then it.pos <- pos
      else
        match hi with
        | Pos_inf -> it.pos <- n (* after the last item *)
        | B next_k -> position_forward it next_k
        | Neg_inf -> assert false

    let seek t ?(tid = 0) k =
      with_epoch t ~tid @@ fun () ->
      let it =
        { tree = t; tid; items = P.empty; lo = Neg_inf; hi = Pos_inf; pos = 0 }
      in
      position_forward it k;
      it

    (* Backward jump (Appendix C.2): land on the rightmost node whose
       low bound is strictly below [klow], using sibling links to correct
       for concurrent splits, then stand on the last item < klow. *)
    let rec position_backward it klow =
      let t = it.tree and tid = it.tid in
      retry_loop t ~tid (fun () ->
          (* descend with the go-left rule: when the governing separator
             equals klow, take the preceding child *)
          let rec down id =
            cnt t.o tid Bw_obs.C_node_visits;
            let head = mt_get t ~tid id in
            (match head with
            | LSmo { op = L_remove; _ } | ID { op = I_remove; _ } ->
                raise Restart
            | _ -> ());
            (* overshoot correction is handled at the leaf level *)
            if is_leaf_elem head then (id, head)
            else begin
              let items = gather_inner t.o ~tid head in
              let n = Growable.length items in
              let idx = ref 0 in
              for i = 0 to n - 1 do
                if kb klow (fst (Growable.get items i)) > 0 then idx := i
                else if
                  kb klow (fst (Growable.get items i)) = 0 && i > 0
                then idx := i - 1
              done;
              down (snd (Growable.get items !idx))
            end
          in
          let id, head = down (Atomic.get t.root) in
          (* walk right while the node still lies strictly left of klow
             and cannot contain its predecessor *)
          let rec rightmost id head =
            let r = range_of head in
            if cmp_bound r.hi (B klow) < 0 && r.right <> nil_id then begin
              let rhead = mt_get t ~tid r.right in
              if cmp_bound (range_of rhead).lo (B klow) < 0 then
                rightmost r.right rhead
              else (id, head)
            end
            else (id, head)
          in
          let id, head = rightmost id head in
          let r = range_of head in
          let items = scan_leaf_page t ~tid id head in
          it.items <- items;
          it.lo <- r.lo;
          it.hi <- r.hi;
          (* last index with key < klow *)
          let pos = lower_bound t.o ~tid items klow - 1 in
          if pos >= 0 then it.pos <- pos
          else
            match r.lo with
            | Neg_inf -> it.pos <- -1 (* before the first item *)
            | B lower -> position_backward it lower
            | Pos_inf -> assert false)

    let current it =
      if it.pos >= 0 && it.pos < P.length it.items then
        Some (P.get it.items it.pos)
      else None

    let at_end it = it.pos >= P.length it.items && it.hi = Pos_inf
    let at_begin it = it.pos < 0 && it.lo = Neg_inf

    let next it =
      with_epoch it.tree ~tid:it.tid @@ fun () ->
      if not (at_end it) then begin
        it.pos <- it.pos + 1;
        if it.pos >= P.length it.items then
          match it.hi with
          | Pos_inf -> it.pos <- P.length it.items
          | B k -> position_forward it k
          | Neg_inf -> assert false
      end

    let prev it =
      with_epoch it.tree ~tid:it.tid @@ fun () ->
      if not (at_begin it) then begin
        it.pos <- it.pos - 1;
        if it.pos < 0 then
          match it.lo with
          | Neg_inf -> it.pos <- -1
          | B k -> position_backward it k
          | Pos_inf -> assert false
      end

    let seek_first t ?(tid = 0) () =
      (* position before everything, then step to the first item *)
      let it =
        { tree = t; tid; items = P.empty; lo = Neg_inf; hi = Pos_inf; pos = 0 }
      in
      (with_epoch t ~tid @@ fun () ->
       retry_loop t ~tid @@ fun () ->
       (* descend along the leftmost spine *)
       let rec down id =
         let head = mt_get t ~tid id in
         (match head with
         | LSmo { op = L_remove; _ } | ID { op = I_remove; _ } -> raise Restart
         | _ -> ());
         if is_leaf_elem head then (id, head)
         else
           let items = gather_inner t.o ~tid head in
           down (snd (Growable.get items 0))
       in
       let id, head = down (Atomic.get t.root) in
       let r = range_of head in
       it.items <- scan_leaf_page t ~tid id head;
       it.lo <- r.lo;
       it.hi <- r.hi;
       it.pos <- 0);
      if P.length it.items = 0 then begin
        (match it.hi with
        | Pos_inf -> ()
        | B k -> with_epoch t ~tid (fun () -> position_forward it k)
        | Neg_inf -> assert false)
      end;
      it
  end

  (* Bulk range scan: like the iterator, but consumes each per-node
     private copy in one go instead of stepping item by item. The
     visitor form materializes nothing; [scan] builds its list on top. *)
  let scan_iter_body t ~tid ~n k visit =
    let count = ref 0 in
    let rec from_key k =
      let items, _, hi =
        with_epoch t ~tid @@ fun () -> Iterator.snapshot_node t ~tid k
      in
      let len = P.length items in
      let pos = ref (lower_bound t.o ~tid items k) in
      while !pos < len && !count < n do
        visit (P.key items !pos) (P.value items !pos);
        incr count;
        incr pos
      done;
      if !count < n then
        match hi with
        | Pos_inf -> ()
        | B next_k -> from_key next_k
        | Neg_inf -> assert false
    in
    from_key k;
    !count

  let scan_iter t ?(tid = 0) ?(n = max_int) k visit =
    match t.o with
    | Bw_obs.Null -> scan_iter_body t ~tid ~n k visit
    | Bw_obs.To _ ->
        timed t ~tid Bw_obs.Lat_scan (fun () -> scan_iter_body t ~tid ~n k visit)

  let scan_body t ~tid ~n k =
    let out = ref [] in
    ignore (scan_iter_body t ~tid ~n k (fun k v -> out := (k, v) :: !out));
    List.rev !out

  let scan t ?(tid = 0) ?(n = max_int) k =
    match t.o with
    | Bw_obs.Null -> scan_body t ~tid ~n k
    | Bw_obs.To _ ->
        timed t ~tid Bw_obs.Lat_scan (fun () -> scan_body t ~tid ~n k)

  let scan_all t ?(tid = 0) () =
    let it = Iterator.seek_first t ~tid () in
    let out = ref [] in
    let rec go () =
      match Iterator.current it with
      | Some kv ->
          out := kv :: !out;
          Iterator.next it;
          go ()
      | None -> ()
    in
    go ();
    List.rev !out

  let cardinal t = List.length (scan_all t ())

  (* Checkpoint traversal: every non-empty logical leaf as one page, in
     key order (leftmost spine down, then the sibling high keys).
     Depth-0 leaves are handed out zero-copy; chained leaves materialize
     through the single-merge path, which leaves the live base
     untouched. *)
  let iter_leaf_pages t ?(tid = 0) f =
    let materialize head =
      match head with
      | Leaf b -> b.lb_page
      | _ -> (
          match consolidate_leaf_chain t ~tid head with
          | Some page -> page
          | None -> P.build (Growable.to_array (gather_leaf t ~tid head)))
    in
    let first =
      with_epoch t ~tid @@ fun () ->
      retry_loop t ~tid @@ fun () ->
      let rec down id =
        let head = mt_get t ~tid id in
        (match head with
        | LSmo { op = L_remove; _ } | ID { op = I_remove; _ } -> raise Restart
        | _ -> ());
        if is_leaf_elem head then head
        else
          let items = gather_inner t.o ~tid head in
          down (snd (Growable.get items 0))
      in
      let head = down (Atomic.get t.root) in
      (materialize head, (range_of head).hi)
    in
    let rec go (page, hi) =
      if P.length page > 0 then f page;
      match hi with
      | Pos_inf -> ()
      | B k ->
          go
            (with_epoch t ~tid @@ fun () ->
             retry_loop t ~tid @@ fun () ->
             let head = descend_root t ~tid ~track:false k in
             (materialize head, (range_of head).hi))
      | Neg_inf -> assert false
    in
    go first

  (* ---------------------------------------------------------------- *)
  (* GC control                                                        *)
  (* ---------------------------------------------------------------- *)

  let gc_advance t = Epoch.advance t.epoch

  let start_gc_thread t ?(interval_s = 0.04) () =
    Epoch.start_background t.epoch ~interval_s

  let stop_gc_thread t = Epoch.stop_background t.epoch
  let quiesce t ~tid = Epoch.quiesce t.epoch ~tid

  (* ---------------------------------------------------------------- *)
  (* Introspection                                                     *)
  (* ---------------------------------------------------------------- *)

  (* The stats readers sum the tree's own counters. A tree on the null
     sink counted nothing, and zeros would look like real counts. *)
  let counts t caller =
    match t.o with
    | Bw_obs.To r -> Bw_obs.count r
    | Bw_obs.Null -> invalid_arg (caller ^ ": the tree has no Bw_obs registry")

  let op_stats t =
    let c = counts t "Bwtree.op_stats" in
    {
      inserts = c Bw_obs.C_inserts;
      deletes = c Bw_obs.C_deletes;
      updates = c Bw_obs.C_updates;
      lookups = c Bw_obs.C_lookups;
      splits = c Bw_obs.C_splits;
      merges = c Bw_obs.C_merges;
      consolidations = c Bw_obs.C_consolidations;
      failed_cas = c Bw_obs.C_delta_cas_failures;
      restarts = c Bw_obs.C_restarts;
      smo_helps = c Bw_obs.C_smo_helps;
      prealloc_overflows = c Bw_obs.C_prealloc_overflows;
      read_consolidations = c Bw_obs.C_read_consolidations;
    }

  let util ~cap ~used ~wasted =
    let used = min used cap in
    float_of_int (used - min wasted used) /. float_of_int cap

  let prealloc_util = function
    | None -> None
    | Some pre ->
        Some
          (util ~cap:pre.cap ~used:(Atomic.get pre.used)
             ~wasted:(Atomic.get pre.wasted))

  let slab_util s =
    util ~cap:(Leaf_page.slab_cap s) ~used:(Atomic.get s.Leaf_page.used)
      ~wasted:(Atomic.get s.Leaf_page.wasted)

  let structure_stats t =
    let tid = 0 in
    let inner_nodes = ref 0
    and leaf_nodes = ref 0
    and inner_chain = ref 0
    and leaf_chain = ref 0
    and inner_size = ref 0
    and leaf_size = ref 0
    and iutil = ref 0.0
    and iutil_n = ref 0
    and lutil = ref 0.0
    and lutil_n = ref 0
    and wasted = ref 0 in
    let rec walk id depth max_depth =
      let head = mt_get t ~tid id in
      if is_leaf_elem head then begin
        incr leaf_nodes;
        leaf_chain := !leaf_chain + depth_of head;
        leaf_size := !leaf_size + size_of head;
        (* a leaf without a slab (no data delta since its last
           consolidation, or no pre-allocation) has nothing to utilize *)
        let s = spine_slab head in
        if s != no_slab then begin
          lutil := !lutil +. slab_util s;
          incr lutil_n;
          wasted := !wasted + Atomic.get s.Leaf_page.wasted
        end;
        max !max_depth (depth + 1) |> fun d -> max_depth := d
      end
      else begin
        incr inner_nodes;
        inner_chain := !inner_chain + depth_of head;
        inner_size := !inner_size + size_of head;
        (match prealloc_util (prealloc_of head) with
        | Some u ->
            iutil := !iutil +. u;
            incr iutil_n
        | None -> ());
        let children = gather_inner t.o ~tid head in
        Growable.iter (fun (_, cid) -> walk cid (depth + 1) max_depth) children
      end
    in
    let max_depth = ref 0 in
    walk (Atomic.get t.root) 0 max_depth;
    let avg num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den in
    {
      inner_nodes = !inner_nodes;
      leaf_nodes = !leaf_nodes;
      avg_inner_chain = avg !inner_chain !inner_nodes;
      avg_leaf_chain = avg !leaf_chain !leaf_nodes;
      avg_inner_size = avg !inner_size !inner_nodes;
      avg_leaf_size = avg !leaf_size !leaf_nodes;
      inner_prealloc_util =
        (if !iutil_n = 0 then 0.0 else !iutil /. float_of_int !iutil_n);
      leaf_prealloc_util =
        (if !lutil_n = 0 then 0.0 else !lutil /. float_of_int !lutil_n);
      leaf_slots_wasted = !wasted;
      depth = !max_depth;
    }

  let iter_nodes t f =
    let tid = 0 in
    let rec walk id =
      let head = mt_get t ~tid id in
      f ~leaf:(is_leaf_elem head) ~chain:(depth_of head) ~size:(size_of head);
      if not (is_leaf_elem head) then
        Growable.iter (fun (_, cid) -> walk cid) (gather_inner t.o ~tid head)
    in
    walk (Atomic.get t.root)

  (* Cheap invariant probe for stress harnesses: one walk, no allocation
     beyond the traversal itself. *)
  let max_chains t =
    let leaf_max = ref 0 and inner_max = ref 0 in
    iter_nodes t (fun ~leaf ~chain ~size:_ ->
        if leaf then (if chain > !leaf_max then leaf_max := chain)
        else if chain > !inner_max then inner_max := chain);
    (!leaf_max, !inner_max)

  let memory_words t = Obj.reachable_words (Obj.repr t)
  let cursor_block t ~tid = Obj.repr t.cur.(tid)

  let mapping_table_stats t =
    {
      allocated = Mapping_table.high_water t.table;
      freed = Mapping_table.free_list_length t.table;
      chunks = Mapping_table.chunks_allocated t.table;
      table_capacity = Mapping_table.capacity t.table;
    }

  (* The tree has no leaf cache; [perfbench] still reads [lc_hits]. *)
  let leaf_cache_stats _ = { lc_hits = 0 }

  (* Test oracle for the unboxed separators: the leaf the descent
     reaches for [k] must be the one found by routing every inner level
     through its consolidated view instead — [gather_inner]'s (bound,
     child) items searched with bound comparisons — with the same B-link
     right moves. *)
  let routing_check t ~tid k =
    let rec via_gather id =
      let head = mt_get t ~tid id in
      let r = range_of head in
      if kb k r.hi >= 0 && r.right <> nil_id then via_gather r.right
      else if is_leaf_elem head then id
      else
        let _, cid, _ = inner_locate_exact t.o ~tid head k in
        via_gather cid
    in
    with_epoch t ~tid @@ fun () ->
    retry_loop t ~tid @@ fun () ->
    ignore (descend_root t ~tid ~track:false k);
    t.cur.(tid).c_id = via_gather (Atomic.get t.root)

  (* ---------------------------------------------------------------- *)
  (* Invariant checking (tests)                                        *)
  (* ---------------------------------------------------------------- *)

  exception Invariant_violation of string

  let fail_inv fmt = Format.kasprintf (fun s -> raise (Invariant_violation s)) fmt

  (* Single-threaded full check: key ordering, bound containment, the
     attributes of every chain element, leaf-level sibling chain
     continuity. *)
  let verify_invariants t =
    let tid = 0 in
    let leaves : (bound * bound * int * int) Growable.t = Growable.create () in
    (* (lo, hi, right, id) in key order *)
    (* the slabs met in the chain being checked, each with the slots its
       runs publish *)
    let slabs : (slab * int ref) list ref = ref [] in
    let published s =
      match List.find_opt (fun (s', _) -> s' == s) !slabs with
      | Some (_, n) -> n
      | None ->
          let n = ref 0 in
          slabs := (s, n) :: !slabs;
          n
    in
    (* Every element of node [id]'s chain against the one below it: a
       delta's depth is one more than its next's; a data delta moves the
       size by its step and shares its next's range record physically (the
       sharing that keeps a data delta one block); a split delta's range
       ends at its split key and points right at the new sibling. A merge
       delta's absorbed chain is checked too. A slab run is checked slot
       by slot — each predecessor below its slot, inside the claimed
       slots, a known kind — and its head against the element under the
       run, as a heap chain would be; it sits on the slab of the chain
       below it, if that has one, and never directly on another run. *)
    let rec check_chain id e =
      match e with
      | Leaf _ | Inner _ -> ()
      | LSlab { slab = s; slot; below; size; depth; range } ->
          let claimed =
            min (Atomic.get s.Leaf_page.used) (Leaf_page.slab_cap s)
          in
          let len = ref 0 and step = ref 0 and i = ref slot in
          while !i >= 0 do
            if !i >= claimed then
              fail_inv "node %d: slot %d outside the %d claimed" id !i claimed;
            let m = s.Leaf_page.smeta.(!i) in
            let kind = Leaf_page.meta_kind m and p = Leaf_page.meta_pred m in
            if kind = Leaf_page.kind_ins then incr step
            else if kind = Leaf_page.kind_del then decr step
            else if kind <> Leaf_page.kind_upd then
              fail_inv "node %d: slot %d has kind %d" id !i kind
            else if
              (not t.cfg.unique_keys) && Array.length s.Leaf_page.solds = 0
            then fail_inv "node %d: update slot %d keeps no old value" id !i;
            if p >= !i then
              fail_inv "node %d: slot %d's predecessor %d is not below it" id
                !i p;
            incr len;
            i := p
          done;
          let n = published s in
          n := !n + !len;
          if depth <> depth_of below + !len then
            fail_inv "node %d: run of %d slots over depth %d has depth %d" id
              !len (depth_of below) depth;
          if size <> size_of below + !step then
            fail_inv "node %d: run size %d over size %d (step %d)" id size
              (size_of below) !step;
          if range != range_of below then
            fail_inv "node %d: slab run does not share its range" id;
          (match below with
          | LSlab _ -> fail_inv "node %d: slab run directly over a run" id
          | _ -> ());
          let under = spine_slab below in
          if under != no_slab && under != s then
            fail_inv "node %d: slab run over another slab's chain" id;
          check_chain id below
      | LIns { next; _ } | LDel { next; _ } | LUpd { next; _ } | LSmo { next; _ }
      | ID { next; _ } ->
          if depth_of e <> depth_of next + 1 then
            fail_inv "node %d: delta depth %d over depth %d" id (depth_of e)
              (depth_of next);
          let step =
            match e with
            | LIns _ | ID { op = I_ins _; _ } -> Some 1
            | LUpd _ -> Some 0
            | LDel _ | ID { op = I_del _; _ } -> Some (-1)
            | _ -> None
          in
          (match step with
          | Some step ->
              if size_of e <> size_of next + step then
                fail_inv "node %d: data delta size %d over size %d" id
                  (size_of e) (size_of next);
              if range_of e != range_of next then
                fail_inv "node %d: data delta does not share its range" id
          | None -> ());
          (match e with
          | LSmo { op = L_split (ks, rid, _); range; _ }
          | ID { op = I_split (ks, rid, _); range; _ } ->
              if cmp_bound range.hi (B ks) <> 0 || range.right <> rid then
                fail_inv "node %d: split delta range (%a, %a) right %d" id
                  pp_bound range.lo pp_bound range.hi range.right
          | LSmo { op = L_merge (_, right, _); _ }
          | ID { op = I_merge (_, right, _); _ } ->
              check_chain id right
          | _ -> ());
          check_chain id next
    in
    (* every claimed slot of a slab is published in the chain or counted
       wasted (a quiesced tree has no claim in flight) *)
    let check_slabs id =
      List.iter
        (fun (s, n) ->
          let claimed =
            min (Atomic.get s.Leaf_page.used) (Leaf_page.slab_cap s)
          and wasted = Atomic.get s.Leaf_page.wasted in
          if claimed <> !n + wasted then
            fail_inv "node %d: slab claimed %d slots, %d published, %d wasted"
              id claimed !n wasted)
        !slabs;
      slabs := []
    in
    let rec walk id ~lo ~hi =
      let head = mt_get t ~tid id in
      check_chain id head;
      check_slabs id;
      let r = range_of head and size = size_of head in
      if cmp_bound r.lo lo <> 0 then
        fail_inv "node %d: lo %a expected %a" id pp_bound r.lo pp_bound lo;
      if cmp_bound r.hi hi > 0 then
        fail_inv "node %d: hi %a beyond expected %a" id pp_bound r.hi pp_bound hi;
      if is_leaf_elem head then begin
        let items = Growable.to_array (gather_leaf t ~tid head) in
        if Array.length items <> size then
          fail_inv "leaf %d: size %d but %d items" id size (Array.length items);
        Array.iteri
          (fun i (k, _) ->
            if kb k r.lo < 0 then fail_inv "leaf %d: key below lo" id;
            if kb k r.hi >= 0 then fail_inv "leaf %d: key above hi" id;
            if i > 0 && K.compare (fst items.(i - 1)) k > 0 then
              fail_inv "leaf %d: keys out of order" id;
            if
              t.cfg.unique_keys && i > 0
              && K.compare (fst items.(i - 1)) k = 0
            then fail_inv "leaf %d: duplicate key in unique mode" id)
          items;
        Growable.push leaves (r.lo, r.hi, r.right, id)
      end
      else begin
        (match chain_base head with
        | Inner b ->
            let br = b.range and seps = b.ib_seps in
            if Array.length b.ib_ids <> Array.length seps + 1 then
              fail_inv "inner %d: %d children for %d separators" id
                (Array.length b.ib_ids) (Array.length seps);
            Array.iteri
              (fun i s ->
                if kb s br.lo <= 0 || kb s br.hi >= 0 then
                  fail_inv "inner %d: base separator outside (lo, hi)" id;
                if i > 0 && K.compare seps.(i - 1) s >= 0 then
                  fail_inv "inner %d: base separators not ascending" id)
              seps
        | _ -> fail_inv "inner %d: chain not based on an inner node" id);
        let items = Growable.to_array (gather_inner t.o ~tid head) in
        if Array.length items <> size then
          fail_inv "inner %d: size %d but %d items" id size (Array.length items);
        if Array.length items = 0 then fail_inv "inner %d: empty" id;
        if cmp_bound (fst items.(0)) r.lo <> 0 then
          fail_inv "inner %d: first separator is not lo" id;
        Array.iteri
          (fun i (sep, cid) ->
            if i > 0 && cmp_bound (fst items.(i - 1)) sep >= 0 then
              fail_inv "inner %d: separators out of order" id;
            let child_hi =
              if i + 1 < Array.length items then fst items.(i + 1) else r.hi
            in
            walk cid ~lo:sep ~hi:child_hi)
          items
      end
    in
    walk (Atomic.get t.root) ~lo:Neg_inf ~hi:Pos_inf;
    (* leaf sibling chain: hi of each leaf equals lo of the next *)
    let n = Growable.length leaves in
    for i = 0 to n - 2 do
      let _, hi, right, id = Growable.get leaves i in
      let lo', _, _, id' = Growable.get leaves (i + 1) in
      if cmp_bound hi lo' <> 0 then
        fail_inv "leaves %d,%d: hi/lo mismatch" id id';
      if right <> id' then
        fail_inv "leaf %d: right sibling %d, expected %d" id right id'
    done;
    if n > 0 then begin
      let _, hi, right, id = Growable.get leaves (n - 1) in
      if cmp_bound hi Pos_inf <> 0 || right <> nil_id then
        fail_inv "last leaf %d: hi/right not terminal" id
    end

  (* Render the physical structure — every logical node with its delta
     chain — for debugging and test failure forensics. *)
  let dump t ppf =
    let tid = 0 in
    let pp_smo ppf = function
      | L_split (k, rid, fin) ->
          Format.fprintf ppf "SPLIT(%a,->%d%s)" K.pp k rid
            (if Atomic.get fin then "" else ",pending")
      | L_merge (k, _, rid) -> Format.fprintf ppf "MERGE(%a,absorbed %d)" K.pp k rid
      | L_remove -> Format.fprintf ppf "REMOVE"
    in
    let pp_iop ppf = function
      | I_ins (k, cid, ns) ->
          Format.fprintf ppf "ins(%a->%d,next %a)" K.pp k cid pp_bound ns
      | I_del (k, k0, n0, k2) ->
          Format.fprintf ppf "del(%a; [%a,%a)->%d)" K.pp k pp_bound k0
            pp_bound k2 n0
      | I_split (k, rid, fin) ->
          Format.fprintf ppf "SPLIT(%a,->%d%s)" K.pp k rid
            (if Atomic.get fin then "" else ",pending")
      | I_merge (k, _, rid) -> Format.fprintf ppf "MERGE(%a,absorbed %d)" K.pp k rid
      | I_remove -> Format.fprintf ppf "REMOVE"
      | I_abort -> Format.fprintf ppf "ABORT"
    in
    let rec pp_chain ppf e =
      match e with
      | Leaf b ->
          Format.fprintf ppf "base[%d items]" (P.length b.lb_page)
      | Inner b ->
          Format.fprintf ppf "base{%a->%d" pp_bound b.range.lo b.ib_ids.(0);
          Array.iteri
            (fun i s -> Format.fprintf ppf " %a->%d" K.pp s b.ib_ids.(i + 1))
            b.ib_seps;
          Format.fprintf ppf "}"
      | LIns d -> Format.fprintf ppf "ins(%a) :: %a" K.pp d.key pp_chain d.next
      | LDel d -> Format.fprintf ppf "del(%a) :: %a" K.pp d.key pp_chain d.next
      | LUpd d -> Format.fprintf ppf "upd(%a) :: %a" K.pp d.key pp_chain d.next
      | LSlab d ->
          let s = d.slab in
          let i = ref d.slot in
          while !i >= 0 do
            let m = s.Leaf_page.smeta.(!i) in
            Format.fprintf ppf "%s(%a)@%d :: "
              (let kind = Leaf_page.meta_kind m in
               if kind = Leaf_page.kind_ins then "ins"
               else if kind = Leaf_page.kind_del then "del"
               else "upd")
              K.pp s.Leaf_page.skeys.(!i) !i;
            i := Leaf_page.meta_pred m
          done;
          pp_chain ppf d.below
      | LSmo d -> Format.fprintf ppf "%a :: %a" pp_smo d.op pp_chain d.next
      | ID d -> Format.fprintf ppf "%a :: %a" pp_iop d.op pp_chain d.next
    in
    let rec walk id indent =
      let head = mt_get t ~tid id in
      let r = range_of head in
      Format.fprintf ppf "%s%s %d [%a,%a) right=%d size=%d depth=%d: %a@."
        indent
        (if is_leaf_elem head then "leaf" else "inner")
        id pp_bound r.lo pp_bound r.hi r.right (size_of head) (depth_of head)
        pp_chain head;
      if not (is_leaf_elem head) then
        Growable.iter
          (fun (_, cid) -> walk cid (indent ^ "  "))
          (gather_inner t.o ~tid head)
    in
    walk (Atomic.get t.root) ""

  (* ---------------------------------------------------------------- *)
  (* §6.3: frozen direct-pointer tree (mapping table disabled)         *)
  (* ---------------------------------------------------------------- *)

  type fnode = F_leaf of P.t | F_inner of key array * fnode array

  (* the source tree's sink, so lookups count into its registry *)
  type frozen = Bw_obs.sink * fnode

  let freeze t =
    consolidate_all t;
    let tid = 0 in
    let rec conv id =
      match mt_get t ~tid id with
      | Leaf b -> F_leaf b.lb_page
      | Inner b -> F_inner (b.ib_seps, Array.map conv b.ib_ids)
      | LIns _ | LDel _ | LUpd _ | LSlab _ | LSmo _ | ID _ ->
          (* consolidate_all left a delta behind (concurrent writer):
             freezing is a single-threaded operation *)
          invalid_arg "Bwtree.freeze: tree is being mutated"
    in
    (t.o, conv (Atomic.get t.root))

  let frozen_lookup (o, root) k =
    let tid = 0 in
    let rec go = function
      | F_inner (seps, children) ->
          cnt o tid Bw_obs.C_ptr_derefs;
          go children.(sep_index o ~tid seps k)
      | F_leaf pg ->
          let n = P.length pg in
          let pos = lower_bound o ~tid pg k in
          let out = ref [] in
          let i = ref pos in
          while !i < n && K.compare (P.key pg !i) k = 0 do
            out := P.value pg !i :: !out;
            incr i
          done;
          !out
    in
    go root
end
