(** The OpenBw-Tree: a lock-free B-link tree with delta chains and a
    mapping-table indirection layer, after "Building a Bw-Tree Takes More
    Than Just Buzz Words" (SIGMOD 2018).

    Concurrency model: base nodes and delta records are immutable; the only
    mutable state is the mapping table's atomic cells (plus per-node
    allocation markers and the epoch system). Every state change is a
    single CaS on a logical node's cell. A failed CaS aborts the operation,
    which restarts from the root (§2.2).

    See {!Bwtree_intf} for the configuration knobs; every optimization from
    the paper is an independent switch. *)

include Bwtree_intf
module Leaf_page = Leaf_page
(** Re-exported so tests and tools can instantiate the full page
    interface (build/merge) without going through a tree. *)

module Counters = Bw_util.Counters
module Growable = Bw_util.Growable

exception Restart
(** Internal control flow: the current attempt observed interference
    (failed CaS, in-flight SMO) and must retry from the root. Never escapes
    the public API. *)

module Make (K : KEY) (V : VALUE) :
  S with type key = K.t and type value = V.t = struct
  type key = K.t
  type value = V.t

  (* The one leaf-materialization representation (ROADMAP item 2): every
     consumer of leaf contents goes through this module. [P] is the full
     internal interface; the public [Page] alias below is narrowed to
     [Leaf_page.S] by the signature constraint. *)
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

  (* Node attributes (Table 1), carried by every element so threads read
     the logical node's current state from the chain head without replaying
     the chain. *)
  type meta = {
    size : int;  (* items in the logical node *)
    depth : int;  (* delta records in the chain *)
    lo : bound;  (* low key *)
    hi : bound;  (* high key = low key of right sibling *)
    right : int;  (* right sibling id, [nil_id] if none *)
  }

  (* Every element is one block: the constructor carries its fields
     inline, so following [l_next] lands directly on the next record and
     a chain step costs one dependent load, not two. *)
  type elem =
    | Leaf of { lb_page : P.t; lb_meta : meta; lb_pre : prealloc option }
    | Inner of {
        ib_seps : key array;
            (* separators 1..n-1, strictly ascending inside (lo, hi);
               separator 0 is [ib_meta.lo]. ib_ids.(i) owns keys from
               separator i up to separator i+1, the last range closed by
               hi. Unboxed: routing compares keys, never bounds. *)
        ib_ids : int array;
        ib_meta : meta;
        ib_pre : prealloc option;
      }
    | LD of { l_op : l_op; l_next : elem; l_meta : meta; l_offset : int }
        (* [l_offset]: the §4.3 base-node position of a data delta's key,
           -1 when unknown; only data deltas read it, so it lives here
           rather than in every meta *)
    | ID of { i_op : i_op; i_next : elem; i_meta : meta }

  and l_op =
    | L_ins of key * value
    | L_del of key * value
    | L_upd of key * value * value  (* key, old value, new value *)
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

  (* §4.1 pre-allocated delta area: an atomic allocation marker over a
     fixed number of slots. Claiming a slot is one atomic add; exhaustion
     forces consolidation. (The paper places the records physically inside
     the chunk; in OCaml the records are ordinary heap blocks — typically
     adjacent thanks to the bump-allocating minor heap — and the marker
     reproduces the allocation discipline and its statistics.) *)
  and prealloc = { cap : int; used : int Atomic.t; wasted : int Atomic.t }

  let meta_of = function
    | Leaf { lb_meta = m; _ }
    | Inner { ib_meta = m; _ }
    | LD { l_meta = m; _ }
    | ID { i_meta = m; _ } ->
        m

  let is_leaf_elem = function Leaf _ | LD _ -> true | Inner _ | ID _ -> false

  (* ---------------------------------------------------------------- *)
  (* Tree                                                              *)
  (* ---------------------------------------------------------------- *)

  (* per-thread statistic field indexes *)
  let f_inserts = 0
  and f_deletes = 1
  and f_updates = 2
  and f_lookups = 3
  and f_splits = 4
  and f_merges = 5
  and f_consolidations = 6
  and f_failed_cas = 7
  and f_restarts = 8
  and f_smo_helps = 9
  and f_prealloc_overflows = 10
  and f_lc_hits = 11
  and f_lc_misses = 12
  and f_lc_stale = 13
  and f_lc_inval = 14
  and f_lc_tick = 15 (* replacement sampler, not a reported stat *)
  and f_lc_win = 16 (* probes seen in the current observation window *)
  and f_lc_winh = 17 (* hits seen in the current observation window *)
  and f_lc_bypass = 18 (* ops left in the current probe-bypass stretch *)
  and f_read_consolidations = 19
  and f_read_walk = 20 (* delta records walked by point reads since the
                          last read-side consolidation, not reported *)

  let n_stat_fields = 21

  (* Per-thread side results of the descent, the leaf walk and the write
     cores, so none of them has to return a tuple or a record: the point
     paths allocate nothing here. *)
  type cursor = {
    mutable c_id : int;  (* leaf the last descent or cache hit found *)
    mutable c_path : int list;
        (* its ancestors' ids, nearest first; written only by tracking
           (write-path) descents *)
    mutable c_offset : int;  (* §4.3 base position for an appended delta *)
    mutable c_walked : int;  (* delta records the last leaf walk crossed *)
    mutable c_ok : bool;  (* the last write core's point-op outcome *)
  }

  (* The leaf cache (ROADMAP item 3) is a flat int array of
     [fingerprint; pid; stamp] triples, one per direct-mapped slot:
     - fingerprint: the full [Hashtbl.hash] of the cached key (-1 =
       empty). A probe compares it before touching anything else, so a
       slot holding some other key costs one array load — no pointer
       chase, no mapping-table read.
     - pid: the candidate leaf for that key.
     - stamp: the SMO epoch at fill time, a refresh hint only.
     Entries are advisory — every hit re-reads the head through the
     mapping table and re-checks [lo <= k < hi] against the *current*
     meta, so a stale/torn/racy entry costs a descent, never a wrong
     leaf. That advisory-ness is why plain (non-atomic) int reads and
     writes suffice: a torn triple (one key's fingerprint beside
     another's pid) just fails validation. Keeping the triples unboxed
     and adjacent matters more than atomicity here — the boxed
     [entry option Atomic.t array] representation this replaced cost
     two dependent cache-line misses per probe and an allocation per
     fill, which showed up as a double-digit regression on exactly the
     miss-dominated workloads the cache must not hurt. *)

  type t = {
    cfg : config;
    table : elem Mapping_table.t;
    root : int Atomic.t;
    epoch : Epoch.t;
    o : Bw_obs.sink;
    st : int array array;  (* [tid].[field], owner-written *)
    cur : cursor array;  (* [tid], owner-written *)
    bperm : int array array;
        (* per-tid batch-permutation scratch, owner-written; each row is
           grown to the batch size once and then reused, so steady-state
           fixed-size batches sort without allocating *)
    smo_epoch : int Atomic.t;
        (* completed structure modifications (splits, merges, root
           collapses) — the leaf cache's global invalidation stamp *)
    lcache : int array;
        (* direct-mapped point-op leaf cache, 3 ints per slot
           (fingerprint, pid, stamp); [||] when disabled *)
    lc_mask : int;
  }

  let sbump t tid f = t.st.(tid).(f) <- t.st.(tid).(f) + 1
  let ssum t f = Array.fold_left (fun acc row -> acc + row.(f)) 0 t.st

  let lc_enabled t = t.lc_mask >= 0

  (* Every completed SMO advances the stamp. Unconditional: the counter
     is one rarely-written atomic, and [leaf_cache_stats] reports it even
     when the cache itself is off. *)
  let smo_bump t = Atomic.incr t.smo_epoch

  let cnt tid ev =
    if !Counters.enabled then Counters.incr Counters.global ~tid ev

  let count_restart t ~tid =
    sbump t tid f_restarts;
    cnt tid Counters.Restart;
    Domain.cpu_relax ()

  let new_prealloc cfg ~leaf =
    if not cfg.preallocate then None
    else
      let cap = if leaf then cfg.leaf_chain_max else cfg.inner_chain_max in
      (* one extra slot: the chain-length trigger normally fires first, so
         marker exhaustion is the backstop, not the common case *)
      Some { cap = cap + 1; used = Atomic.make 0; wasted = Atomic.make 0 }

  let empty_leaf cfg =
    Leaf
      {
        lb_page = P.empty;
        lb_meta = { size = 0; depth = 0; lo = Neg_inf; hi = Pos_inf; right = nil_id };
        lb_pre = new_prealloc cfg ~leaf:true;
      }

  (* Sentinel element: a cache probe's miss, and the absent parent of a
     root-level node. Only ever compared physically. *)
  let no_leaf = empty_leaf { default_config with preallocate = false }

  let create ?(config = default_config) ?(obs = Bw_obs.Null) () =
    Config.validate config;
    let dummy = empty_leaf { config with preallocate = false } in
    let table = Mapping_table.create ~obs ~dummy () in
    let leaf = empty_leaf config in
    let leaf_id = Mapping_table.allocate table leaf in
    let root =
      Inner
        {
          ib_seps = [||];
          ib_ids = [| leaf_id |];
          ib_meta =
            { size = 1; depth = 0; lo = Neg_inf; hi = Pos_inf; right = nil_id };
          ib_pre = new_prealloc config ~leaf:false;
        }
    in
    let root_id = Mapping_table.allocate table root in
    let lc_slots = if config.leaf_cache then 1 lsl config.leaf_cache_bits else 0 in
    let t =
      {
        cfg = config;
        table;
        root = Atomic.make root_id;
        epoch =
          Epoch.create ~scheme:config.gc_scheme ~max_threads:config.max_threads
            ~gc_threshold:config.gc_threshold ~obs ();
        o = obs;
        st = Array.init config.max_threads (fun _ -> Array.make n_stat_fields 0);
        cur =
          Array.init config.max_threads (fun _ ->
              {
                c_id = nil_id;
                c_path = [];
                c_offset = -1;
                c_walked = 0;
                c_ok = false;
              });
        bperm = Array.make config.max_threads [||];
        smo_epoch = Atomic.make 0;
        lcache = Array.make (3 * lc_slots) (-1);
        lc_mask = lc_slots - 1;
      }
    in
    if lc_enabled t && Bw_obs.enabled obs then
      Bw_obs.register_gauge obs Bw_obs.G_leaf_cache_fill (fun () ->
          let occupied = ref 0 in
          for s = 0 to lc_slots - 1 do
            if t.lcache.(3 * s) >= 0 then incr occupied
          done;
          !occupied * 1000 / lc_slots);
    t

  let config t = t.cfg
  let obs t = t.o
  let epoch t = t.epoch

  (* The linearization primitive: swing a logical node's physical pointer. *)
  let mt_cas t ~tid id ~expect ~repl =
    cnt tid Counters.Cas_attempt;
    let ok =
      if t.cfg.use_atomic_cas then Mapping_table.cas t.table id ~expect ~repl
      else Mapping_table.cas_unsafe t.table id ~expect ~repl
    in
    if not ok then cnt tid Counters.Cas_failure;
    ok

  let mt_get t ~tid id =
    cnt tid Counters.Pointer_deref;
    Mapping_table.get t.table id

  (* ---------------------------------------------------------------- *)
  (* Sorted-array helpers                                              *)
  (* ---------------------------------------------------------------- *)

  (* In-leaf key search lives in {!Leaf_page} ([P.lower_bound] and
     friends) — one implementation for descent, batch probes, iterators
     and the frozen tree. Only the separator search below stays here. *)

  (* The child slot routing [k] in an inner base: how many of the
     separators 1..n-1 ([seps], unboxed) are <= k. Separator 0, the
     node's low bound, is <= k for any correctly-routed traversal, so it
     is never compared. *)
  let sep_index ~tid (seps : key array) k =
    let lo = ref 0 and hi = ref (Array.length seps) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      cnt tid Counters.Key_compare;
      if K.compare (Array.unsafe_get seps mid) k <= 0 then lo := mid + 1
      else hi := mid
    done;
    !lo

  (* ---------------------------------------------------------------- *)
  (* Full replay: logical node -> sorted items (the "slow" path)       *)
  (* ---------------------------------------------------------------- *)

  (* Rebuilds a leaf logical node's sorted (key, value) items by applying
     the chain oldest-first. Correct for every delta kind, including SMO
     records; used by consolidation (baseline mode), splits, iterators and
     the invariant checker. *)
  let rec gather_leaf ~tid (e : elem) : (key * value) Growable.t =
    match e with
    | Leaf b ->
        let g = Growable.create ~capacity:(P.length b.lb_page + 8) () in
        P.iter_from b.lb_page 0 (fun k v -> Growable.push g (k, v));
        g
    | LD d -> (
        cnt tid Counters.Pointer_deref;
        let items = gather_leaf ~tid d.l_next in
        let find_pair k v =
          (* position of the exact (k, v) pair, or -1 *)
          let n = Growable.length items in
          let i = ref (lower_bound_g ~tid items k) in
          let found = ref (-1) in
          while
            !found < 0 && !i < n
            && K.compare (fst (Growable.get items !i)) k = 0
          do
            if V.equal (snd (Growable.get items !i)) v then found := !i;
            incr i
          done;
          !found
        in
        let do_insert k v =
          let pos = upper_bound_g ~tid items k in
          Growable.insert_at items pos (k, v)
        in
        let do_delete k v =
          let pos = find_pair k v in
          if pos >= 0 then Growable.remove_at items pos
        in
        match d.l_op with
        | L_ins (k, v) ->
            do_insert k v;
            items
        | L_del (k, v) ->
            do_delete k v;
            items
        | L_upd (k, vold, vnew) ->
            do_delete k vold;
            do_insert k vnew;
            items
        | L_split (ks, _, _) ->
            let cut = lower_bound_g ~tid items ks in
            Growable.truncate items cut;
            items
        | L_merge (_, right, _) ->
            let r = gather_leaf ~tid right in
            Growable.iter (fun it -> Growable.push items it) r;
            items
        | L_remove -> items)
    | Inner _ | ID _ -> assert false

  and lower_bound_g ~tid items k =
    let lo = ref 0 and hi = ref (Growable.length items) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      cnt tid Counters.Key_compare;
      if K.compare (fst (Growable.get items mid)) k < 0 then lo := mid + 1
      else hi := mid
    done;
    !lo

  and upper_bound_g ~tid items k =
    let lo = ref 0 and hi = ref (Growable.length items) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      cnt tid Counters.Key_compare;
      if K.compare (fst (Growable.get items mid)) k <= 0 then lo := mid + 1
      else hi := mid
    done;
    !lo

  (* Same, for inner logical nodes: sorted (separator bound, child id). *)
  let rec gather_inner ~tid (e : elem) : (bound * int) Growable.t =
    match e with
    | Inner b ->
        let ids = b.ib_ids in
        let g = Growable.create ~capacity:(Array.length ids + 4) () in
        if Array.length ids > 0 then Growable.push g (b.ib_meta.lo, ids.(0));
        Array.iteri (fun i s -> Growable.push g (B s, ids.(i + 1))) b.ib_seps;
        g
    | ID d -> (
        cnt tid Counters.Pointer_deref;
        let items = gather_inner ~tid d.i_next in
        let pos_of_sep sep =
          let lo = ref 0 and hi = ref (Growable.length items) in
          while !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            cnt tid Counters.Key_compare;
            if cmp_bound (fst (Growable.get items mid)) sep < 0 then
              lo := mid + 1
            else hi := mid
          done;
          !lo
        in
        match d.i_op with
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
            let r = gather_inner ~tid right in
            Growable.iter (fun it -> Growable.push items it) r;
            items
        | I_remove | I_abort -> items)
    | Leaf _ | LD _ -> assert false

  (* ---------------------------------------------------------------- *)
  (* Fast consolidation (§4.3)                                         *)
  (* ---------------------------------------------------------------- *)

  (* Applicable when the chain is only data deltas over a leaf base:
     convert the chain (newest first) into {!P.delta} records and let
     the page module resolve visibility and emit the new page with a
     single two-way merge — no full sort. [None] on SMO-bearing chains;
     the caller falls back to the general replay. *)
  let consolidate_leaf_chain ~tid (head : elem) : P.t option =
    let exception Fallback in
    try
      let rec walk e =
        match e with
        | Leaf b -> (b.lb_page, [])
        | LD d ->
            cnt tid Counters.Pointer_deref;
            let dd =
              match d.l_op with
              | L_ins (k, v) -> P.Ins (k, v)
              | L_del (k, v) -> P.Del (k, v)
              | L_upd (k, vold, vnew) -> P.Upd (k, vold, vnew)
              | L_split _ | L_merge _ | L_remove -> raise Fallback
            in
            let b, ds = walk d.l_next in
            (b, dd :: ds)
        | Inner _ | ID _ -> raise Fallback
      in
      let page, deltas = walk head in
      Some (P.merge_with_deltas ~tid page deltas)
    with Fallback -> None

  (* ---------------------------------------------------------------- *)
  (* Building base nodes                                               *)
  (* ---------------------------------------------------------------- *)

  let leaf_base_of_page t page ~lo ~hi ~right =
    Leaf
      {
        lb_page = page;
        lb_meta = { size = P.length page; depth = 0; lo; hi; right };
        lb_pre = new_prealloc t.cfg ~leaf:true;
      }

  let inner_base_of_items t items ~lo ~hi ~right =
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
        ib_seps = seps;
        ib_ids = Array.map snd items;
        ib_meta = { size = n; depth = 0; lo; hi; right };
        ib_pre = new_prealloc t.cfg ~leaf:false;
      }

  (* ---------------------------------------------------------------- *)
  (* Consolidation (§2.3)                                              *)
  (* ---------------------------------------------------------------- *)

  let head_has_smo head =
    let rec go = function
      | Leaf _ | Inner _ -> false
      | LD d -> (
          match d.l_op with
          | L_split _ | L_merge _ | L_remove -> true
          | L_ins _ | L_del _ | L_upd _ -> go d.l_next)
      | ID d -> (
          match d.i_op with
          | I_split _ | I_merge _ | I_remove | I_abort -> true
          | I_ins _ | I_del _ -> go d.i_next)
    in
    go head

  (* A split delta at the head whose done flag is still clear is the only
     evidence that the new right sibling's separator may be unposted
     (Stage III pending) — help-along in [descend] triggers off it.
     Ordinary appends only land on top of a split delta once the split
     is complete, so a BURIED split delta is always a completed split.
     Paths that cannot complete Stage III themselves must therefore
     leave pending heads alone: the leaf cache refuses to serve them,
     consolidation completes the split first and merges give up on such
     victims. Absorbing the evidence early would orphan the right
     sibling — the parent never learns its separator, and the sibling's
     own split later restarts forever against routing that cannot
     recognize it. A set flag means the separator is in the parent and
     stays there while the split delta heads its node (see DESIGN.md
     "Read path"), so such heads are treated like any other. *)
  let head_is_split_topped = function
    | LD { l_op = L_split (_, _, fin); _ } | ID { i_op = I_split (_, _, fin); _ }
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
  let sort_consolidate_leaf ~tid (head : elem) : (key * value) array option =
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
            if K.compare k' k = 0 && V.equal v' v then begin
              Growable.remove_at dels i;
              true
            end
            else go (i + 1)
        in
        go 0
      in
      let rec walk e =
        match e with
        | Leaf b -> b.lb_page
        | LD d -> (
            cnt tid Counters.Pointer_deref;
            match d.l_op with
            | L_ins (k, v) ->
                if not (take_pending k v) then Growable.push pres (k, v);
                walk d.l_next
            | L_del (k, v) ->
                Growable.push dels (k, v);
                walk d.l_next
            | L_upd (k, vold, vnew) ->
                if not (take_pending k vnew) then Growable.push pres (k, vnew);
                Growable.push dels (k, vold);
                walk d.l_next
            | L_split _ | L_merge _ | L_remove -> raise Fallback)
        | Inner _ | ID _ -> raise Fallback
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
     deltas are absorbed: the head meta already carries the post-SMO
     lo/hi/right (Table 1), and the replay truncates/concatenates items
     accordingly. Nodes with a remove delta at the head are skipped — they
     are about to disappear. Returns the new base when this call's CaS
     installed it, [head] otherwise. *)
  let try_consolidate t ~tid id (head : elem) =
    let m = meta_of head in
    if m.depth = 0 then head
    else
      match head with
      | LD { l_op = L_remove; _ } | ID { i_op = I_remove | I_abort; _ } ->
          head
      | _ ->
          (* A split delta at the head may carry a still-unposted
             separator (Stage III pending — possible when the split was
             posted under a cache hit's empty ancestor path). Absorbing
             it would orphan the right sibling, so complete the split
             first; the CaS below then only absorbs what the descent
             just proved complete (see [head_is_split_topped]). *)
          (match head with
          | LD { l_op = L_split (ks, _, fin); _ }
          | ID { i_op = I_split (ks, _, fin); _ }
            when not (Atomic.get fin) ->
              !complete_split_for t ~tid ks fin
          | _ -> ());
          let t0 = if Bw_obs.enabled t.o then Bw_obs.now_ns () else 0 in
          let repl =
            if is_leaf_elem head then begin
              let page =
                if t.cfg.fast_consolidation then
                  consolidate_leaf_chain ~tid head
                else
                  (* the paper's baseline pays the full sort *)
                  Option.map P.build (sort_consolidate_leaf ~tid head)
              in
              let page =
                match page with
                | Some p -> p
                | None ->
                    P.build (Growable.to_array (gather_leaf ~tid head))
              in
              leaf_base_of_page t page ~lo:m.lo ~hi:m.hi ~right:m.right
            end
            else
              let items = Growable.to_array (gather_inner ~tid head) in
              inner_base_of_items t items ~lo:m.lo ~hi:m.hi ~right:m.right
          in
          if mt_cas t ~tid id ~expect:head ~repl then begin
            sbump t tid f_consolidations;
            if Bw_obs.enabled t.o then begin
              Bw_obs.observe t.o ~tid Bw_obs.Lat_consolidate
                (Bw_obs.now_ns () - t0);
              Bw_obs.incr t.o ~tid Bw_obs.C_consolidations;
              Bw_obs.event t.o ~tid Bw_obs.Ev_consolidate ~a:id ~b:m.depth
            end;
            Epoch.retire t.epoch ~tid (Obj.repr head);
            repl
          end
          else head

  let consolidate t ~tid id head = ignore (try_consolidate t ~tid id head)

  let rec consolidate_subtree t ~tid id =
    let head = mt_get t ~tid id in
    if not (is_leaf_elem head) then begin
      let children = gather_inner ~tid head in
      Growable.iter (fun (_, cid) -> consolidate_subtree t ~tid cid) children
    end;
    consolidate t ~tid id (mt_get t ~tid id)

  let consolidate_all t = consolidate_subtree t ~tid:0 (Atomic.get t.root)

  (* ---------------------------------------------------------------- *)
  (* Delta append plumbing                                             *)
  (* ---------------------------------------------------------------- *)

  (* find the (left) base node of a chain, for its prealloc marker *)
  let rec chain_base (e : elem) =
    match e with
    | Leaf _ | Inner _ -> e
    | LD d -> chain_base d.l_next
    | ID d -> chain_base d.i_next

  let prealloc_of e =
    match chain_base e with
    | Leaf b -> b.lb_pre
    | Inner b -> b.ib_pre
    | LD _ | ID _ -> assert false

  (* §4.1: claim one pre-allocated slot; on exhaustion force consolidation
     and make the caller retry. *)
  let claim_slot t ~tid id head =
    match prealloc_of head with
    | None -> ()
    | Some pre ->
        let i = Atomic.fetch_and_add pre.used 1 in
        if i >= pre.cap then begin
          sbump t tid f_prealloc_overflows;
          consolidate t ~tid id head;
          raise Restart
        end

  let slot_wasted head =
    match prealloc_of head with
    | None -> ()
    | Some pre -> ignore (Atomic.fetch_and_add pre.wasted 1)

  let head_is_append_blocked = function
    | LD { l_op = L_remove; _ } -> true
    | ID { i_op = I_remove | I_abort; _ } -> true
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
  let rec inner_nav ~tid (e : elem) k =
    match e with
    | ID d -> (
        cnt tid Counters.Pointer_deref;
        match d.i_op with
        | I_ins (ks, cid, nsep) ->
            cnt tid Counters.Key_compare;
            if K.compare k ks >= 0 && kb k nsep < 0 then cid
            else inner_nav ~tid d.i_next k
        | I_del (_, k0, n0, k2) ->
            if kb k k0 >= 0 && kb k k2 < 0 then n0
            else inner_nav ~tid d.i_next k
        | I_split (ks, rid, _) ->
            cnt tid Counters.Key_compare;
            if K.compare k ks >= 0 then go_right rid
            else inner_nav ~tid d.i_next k
        | I_merge (km, right, _) ->
            cnt tid Counters.Key_compare;
            inner_nav ~tid (if K.compare k km >= 0 then right else d.i_next) k
        | I_remove | I_abort -> inner_nav ~tid d.i_next k)
    | Inner b ->
        let m = b.ib_meta in
        if kb k m.hi >= 0 && m.right <> nil_id then go_right m.right
        else Array.unsafe_get b.ib_ids (sep_index ~tid b.ib_seps k)
    | Leaf _ | LD _ -> assert false

  (* Exact routing context from the consolidated view: the separator
     governing [k], its child, and the tight next bound. Used when posting
     SMO records, where stale "next separator" shortcuts would corrupt
     routing. *)
  let inner_locate_exact ~tid (head : elem) k : bound * int * bound =
    let items = gather_inner ~tid head in
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
      else (meta_of head).hi
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
              ib_seps = [| ks |];
              ib_ids = [| left_id; rid |];
              ib_meta =
                { size = 2; depth = 0; lo = Neg_inf; hi = Pos_inf; right = nil_id };
              ib_pre = new_prealloc t.cfg ~leaf:false;
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
          let pm = meta_of phead in
          if kb ks pm.hi >= 0 && pm.right <> nil_id then
            (* the parent itself split; our separator belongs right *)
            attempt pm.right
          else begin
            let sep, cid, nsep = inner_locate_exact ~tid phead ks in
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
                  {
                    i_op = I_ins (ks, rid, nsep);
                    i_next = phead;
                    i_meta =
                      {
                        size = pm.size + 1;
                        depth = pm.depth + 1;
                        lo = pm.lo;
                        hi = pm.hi;
                        right = pm.right;
                      };
                  }
              in
              if not (mt_cas t ~tid pid ~expect:phead ~repl:d) then begin
                sbump t tid f_failed_cas;
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
    let m = meta_of head in
    if m.size > t.cfg.inner_max then ignore (split_node t ~tid id head parent_path)
    else if m.depth >= t.cfg.inner_chain_max then consolidate t ~tid id head

  (* Split one logical node (leaf or inner). Stage I builds the new right
     sibling and publishes it in the mapping table; Stage II posts the
     split delta; Stage III posts the separator to the parent. Returns
     the split delta when this call installed it (its Stage III then
     complete), [head] otherwise. *)
  and split_node t ~tid id (head : elem) parent_path =
    let m = meta_of head in
    if head_is_append_blocked head then head
    else
      let leaf = is_leaf_elem head in
      (* the split key and the new right sibling's base, or no split *)
      let cut =
        if leaf then begin
          let items = Growable.to_array (gather_leaf ~tid head) in
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
                  leaf_base_of_page t
                    (P.build_sub items ~pos:!pos ~len:(n - !pos))
                    ~lo:(B ks) ~hi:m.hi ~right:m.right )
          end
        end
        else begin
          let items = Growable.to_array (gather_inner ~tid head) in
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
                      ~lo:(B ks) ~hi:m.hi ~right:m.right )
        end
      in
      match cut with
      | None -> head
      | Some (ks, size, right) ->
          let rid = Mapping_table.allocate t.table right in
          cnt tid Counters.Allocation;
          let fin = Atomic.make false in
          let meta =
            { size; depth = m.depth + 1; lo = m.lo; hi = B ks; right = rid }
          in
          let d =
            if leaf then
              LD
                {
                  l_op = L_split (ks, rid, fin);
                  l_next = head;
                  l_meta = meta;
                  l_offset = -1;
                }
            else ID { i_op = I_split (ks, rid, fin); i_next = head; i_meta = meta }
          in
          if not (mt_cas t ~tid id ~expect:head ~repl:d) then begin
            sbump t tid f_failed_cas;
            Mapping_table.free_id t.table rid;
            head
          end
          else begin
            sbump t tid f_splits;
            smo_bump t;
            if Bw_obs.enabled t.o then begin
              Bw_obs.incr t.o ~tid Bw_obs.C_splits;
              Bw_obs.event t.o ~tid Bw_obs.Ev_split ~a:id ~b:rid
            end;
            finish_split t ~tid ~parent_path ~id ~ks ~rid ~fin;
            d
          end

  (* Stage III for a split this thread just posted. A cache-hit append
     carries no ancestor path; an empty path on a non-root node would
     otherwise fall into [post_split_separator]'s root-grow branch,
     raise, and leave the right sibling orphaned (the caller swallows
     Restarts — the append itself already linearized). A posting that
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
      let m = meta_of head in
      if m.size = 1 && not (is_leaf_elem head) && not (head_has_smo head)
      then begin
        let items = gather_inner ~tid head in
        if Growable.length items = 1 then begin
          let _, cid = Growable.get items 0 in
          let child = mt_get t ~tid cid in
          if not (is_leaf_elem child) then
            if Atomic.compare_and_set t.root root_id cid then begin
              smo_bump t;
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
          let pm = meta_of phead in
          let abort_d =
            ID
              {
                i_op = I_abort;
                i_next = phead;
                i_meta = { pm with depth = pm.depth + 1 };
              }
          in
          if not (mt_cas t ~tid pid ~expect:phead ~repl:abort_d) then
            sbump t tid f_failed_cas
          else begin
            let unlock_parent () =
              let ok = mt_cas t ~tid pid ~expect:abort_d ~repl:phead in
              assert ok
            in
            (* re-read our node under the parent lock *)
            let nhead = mt_get t ~tid id in
            let nm = meta_of nhead in
            let give_up () = unlock_parent () in
            if
              head_is_append_blocked nhead
              || head_is_split_topped nhead
              || nm.size >= t.cfg.leaf_min
                 && is_leaf_elem nhead
              || nm.size >= t.cfg.inner_min
                 && not (is_leaf_elem nhead)
            then give_up ()
            else
              match nm.lo with
              | Neg_inf | Pos_inf -> give_up () (* leftmost: no left sibling *)
              | B merge_key -> (
                  (* locate our separator and our left sibling in the
                     write-locked parent *)
                  let items = gather_inner ~tid phead in
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
                        else pm.hi
                      in
                      (* Stage I: remove delta on the victim *)
                      let rem =
                        if is_leaf_elem nhead then
                          LD
                            {
                              l_op = L_remove;
                              l_next = nhead;
                              l_meta = { nm with depth = nm.depth + 1 };
                              l_offset = -1;
                            }
                        else
                          ID
                            {
                              i_op = I_remove;
                              i_next = nhead;
                              i_meta = { nm with depth = nm.depth + 1 };
                            }
                      in
                      if not (mt_cas t ~tid id ~expect:nhead ~repl:rem) then begin
                        sbump t tid f_failed_cas;
                        give_up ()
                      end
                      else begin
                        let undo_remove () =
                          let ok = mt_cas t ~tid id ~expect:rem ~repl:nhead in
                          assert ok
                        in
                        (* Stage II: merge delta on the left sibling *)
                        let lhead = mt_get t ~tid lid in
                        let lm = meta_of lhead in
                        if
                          head_is_append_blocked lhead
                          || cmp_bound lm.hi (B merge_key) <> 0
                          || lm.right <> id
                          || is_leaf_elem lhead <> is_leaf_elem nhead
                        then begin
                          undo_remove ();
                          give_up ()
                        end
                        else begin
                          let merged_meta =
                            {
                              size = lm.size + nm.size;
                              depth = lm.depth + 1;
                              lo = lm.lo;
                              hi = nm.hi;
                              right = nm.right;
                            }
                          in
                          let merge_d =
                            if is_leaf_elem lhead then
                              LD
                                {
                                  l_op = L_merge (merge_key, nhead, id);
                                  l_next = lhead;
                                  l_meta = merged_meta;
                                  l_offset = -1;
                                }
                            else
                              ID
                                {
                                  i_op = I_merge (merge_key, nhead, id);
                                  i_next = lhead;
                                  i_meta = merged_meta;
                                }
                          in
                          if not (mt_cas t ~tid lid ~expect:lhead ~repl:merge_d)
                          then begin
                            sbump t tid f_failed_cas;
                            undo_remove ();
                            give_up ()
                          end
                          else begin
                            (* Stage III: atomically drop the ∆abort and
                               post the separator delete *)
                            let del_d =
                              ID
                                {
                                  i_op = I_del (merge_key, k0, lid, k2);
                                  i_next = phead;
                                  i_meta =
                                    {
                                      size = pm.size - 1;
                                      depth = pm.depth + 1;
                                      lo = pm.lo;
                                      hi = pm.hi;
                                      right = pm.right;
                                    };
                                }
                            in
                            let ok =
                              mt_cas t ~tid pid ~expect:abort_d ~repl:del_d
                            in
                            assert ok;
                            sbump t tid f_merges;
                            smo_bump t;
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
                            let dm = meta_of del_d in
                            if dm.size < t.cfg.inner_min && rest <> [] then
                              merge_node t ~tid pid del_d rest
                            else if rest = [] && dm.size = 1 then
                              collapse_root t ~tid pid
                            else if dm.depth >= t.cfg.inner_chain_max then
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
     [complete_split_for], as after a cache hit. So a read descent
     allocates nothing unless it helps.

     The batch path re-enters here from a cached ancestor; if that
     ancestor has since been merged away its head carries a remove delta
     and the walk restarts from the root. *)
  let rec descend t ~tid ~track k id path pid =
    cnt tid Counters.Node_visit;
    let head = mt_get t ~tid id in
    (match head with
    | LD { l_op = L_split (ks, rid, fin); _ }
    | ID { i_op = I_split (ks, rid, fin); _ }
      when not (Atomic.get fin) ->
        (* unfinished half-split at the head: help post the separator
           before traversing (best effort; Restart on interference) *)
        sbump t tid f_smo_helps;
        let parent_path = if track || pid = nil_id then path else [ pid ] in
        post_split_separator t ~tid ~parent_path ~left_id:id ~ks ~rid ~fin
    | LD { l_op = L_remove; _ } | ID { i_op = I_remove; _ } ->
        (* node being merged away: its merging thread is mid-protocol;
           back off and retry from the root *)
        raise Restart
    | _ -> ());
    let m = meta_of head in
    if kb k m.hi >= 0 && m.right <> nil_id then
      (* B-link right move: the split separator may not be posted yet *)
      descend t ~tid ~track k m.right path pid
    else if is_leaf_elem head then begin
      let c = t.cur.(tid) in
      c.c_id <- id;
      if track then c.c_path <- path;
      head
    end
    else
      let nav = inner_nav ~tid head k in
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
  (* Leaf cache: O(1) point-op descent skipping (ROADMAP item 3)       *)
  (* ---------------------------------------------------------------- *)

  (* Publish-then-validate, like every other shared structure here. A
     fill publishes the leaf a real descent just returned; a probe
     validates the entry against the *current* tree before trusting it:
     re-read the head through the mapping table (leaf PIDs are never
     recycled once published, so the cell always names the same logical
     node), require a leaf that is neither remove-blocked nor topped by
     a split delta with Stage III pending (which only a real descent can
     complete — see [head_is_split_topped]; a finished split's leaf is
     served), and re-check [lo <= k < hi] on its
     current meta. That is exactly the invariant
     [descend] establishes, so a validated hit is interchangeable with a
     descent — except the ancestor path is unknown ([]), which only
     degrades SMO housekeeping: a split posted under an empty path
     leaves Stage III to the next descent's help-along.

     The SMO stamp is the fast-invalidation hint: entries filled before
     the latest split/merge/root-collapse are re-stamped when they
     survive validation, dropped when they fail it. The mapping-table
     re-read is what makes this sound — a stamp alone cannot be, since
     a Stage-II CAS lands before the stamp advances. *)

  (* Base index of [k]'s slot triple. [Hashtbl.hash] is non-negative,
     so -1 is a safe empty-slot fingerprint. *)
  let lc_base t h = 3 * (h land t.lc_mask)

  (* Store the leaf a descent for [k] just returned.

     Write traffic is the cache's whole overhead budget: when hits are
     rare (uniform keys, or a deliberately undersized cache) every op
     is a miss and a naive always-write fill turns the slot cache
     lines into multi-thread ping-pong. Damping rules keep the miss
     path nearly read-only:
     - same key, same leaf, same SMO stamp: skip the write entirely;
     - a different key's entry: evict only every 8th conflicting miss
       per thread (sampled replacement). A genuinely hot key still
       claims its slot within a few misses, while thrash-prone
       workloads stop paying coherence traffic for entries that would
       never hit.
     Replacing another key's entry is an eviction, counted as an
     invalidation so occupancy arithmetic stays honest. *)
  let lc_fill t ~tid k ~id =
    if lc_enabled t then begin
      let h = Hashtbl.hash k in
      let b = lc_base t h in
      let fp = Array.unsafe_get t.lcache b in
      if fp = h then begin
        let stamp = Atomic.get t.smo_epoch in
        if t.lcache.(b + 1) <> id || t.lcache.(b + 2) <> stamp then begin
          t.lcache.(b + 1) <- id;
          t.lcache.(b + 2) <- stamp
        end
      end
      else if fp < 0 then begin
        t.lcache.(b + 1) <- id;
        t.lcache.(b + 2) <- Atomic.get t.smo_epoch;
        t.lcache.(b) <- h
      end
      else begin
        sbump t tid f_lc_tick;
        if t.st.(tid).(f_lc_tick) land 7 = 0 then begin
          sbump t tid f_lc_inval;
          if Bw_obs.enabled t.o then
            Bw_obs.incr t.o ~tid Bw_obs.C_leaf_cache_invalidations;
          t.lcache.(b + 1) <- id;
          t.lcache.(b + 2) <- Atomic.get t.smo_epoch;
          t.lcache.(b) <- h
        end
      end
    end

  (* Validated probe: the leaf's head, its id in the cursor, only when
     the slot's fingerprint matches [k] and the current head still
     proves ownership (leaf, not append-blocked, no unfinished split on
     top, and [k] inside its *current* separator range); [no_leaf]
     otherwise. A failed validation drops the entry (stale verify +
     invalidation); a slot fingerprinted by a different key is a plain
     miss and is left alone — it may still serve its own key. *)
  let lc_probe t ~tid k =
    if not (lc_enabled t) then no_leaf
    else
      let h = Hashtbl.hash k in
      let b = lc_base t h in
      if Array.unsafe_get t.lcache b <> h then no_leaf
      else begin
        (* read pid once: a racing fill could swap it between the
           mapping-table read and the return *)
        let pid = t.lcache.(b + 1) in
        let head = mt_get t ~tid pid in
        let m = meta_of head in
        if
          is_leaf_elem head
          && (not (head_is_append_blocked head))
          && (not (head_is_split_topped head))
          && kb k m.lo >= 0
          && kb k m.hi < 0
        then begin
          let stamp = Atomic.get t.smo_epoch in
          (* survived validation across an SMO: re-stamp so the next
             fill for this key stays write-free *)
          if t.lcache.(b + 2) <> stamp then t.lcache.(b + 2) <- stamp;
          t.cur.(tid).c_id <- pid;
          head
        end
        else begin
          sbump t tid f_lc_stale;
          sbump t tid f_lc_inval;
          t.lcache.(b) <- -1;
          if Bw_obs.enabled t.o then begin
            Bw_obs.incr t.o ~tid Bw_obs.C_leaf_cache_stale_verifies;
            Bw_obs.incr t.o ~tid Bw_obs.C_leaf_cache_invalidations
          end;
          no_leaf
        end
      end

  let lc_count_hit t ~tid =
    sbump t tid f_lc_hits;
    if Bw_obs.enabled t.o then Bw_obs.incr t.o ~tid Bw_obs.C_leaf_cache_hits

  let lc_count_miss t ~tid =
    sbump t tid f_lc_misses;
    if Bw_obs.enabled t.o then Bw_obs.incr t.o ~tid Bw_obs.C_leaf_cache_misses

  let descend_refill t ~tid ~track k =
    let head = descend_root t ~tid ~track k in
    lc_fill t ~tid k ~id:t.cur.(tid).c_id;
    head

  (* Adaptive bypass: the acceptance bar says a workload the cache
     cannot help (near-zero hit rate — uniform keys over a deliberately
     undersized cache) must not pay for it. Per thread, watch the hit
     rate over a window of [lc_window] probes; if fewer than 1/8 of
     them hit, descend without probing or filling for the next
     [lc_bypass_len] point ops, then re-open a window. Steady-state
     overhead on a hopeless workload is one branch per op plus a short
     probing burst every [lc_bypass_len] ops (~1/9 of the ungated
     cost), while any workload whose hit rate clears breakeven (~25%)
     keeps the cache fully engaged. All gate state is owner-written
     per-thread scratch — no shared writes. *)
  let lc_window = 128
  let lc_bypass_len = 1024

  let lc_window_step t ~tid ~hit =
    let row = t.st.(tid) in
    if hit then row.(f_lc_winh) <- row.(f_lc_winh) + 1;
    let w = row.(f_lc_win) + 1 in
    if w < lc_window then row.(f_lc_win) <- w
    else begin
      if row.(f_lc_winh) * 8 < lc_window then
        row.(f_lc_bypass) <- lc_bypass_len;
      row.(f_lc_win) <- 0;
      row.(f_lc_winh) <- 0
    end

  (* The point-op descent: try the cache, fall back to a from-root
     descent and fill from what it found. Returns the leaf head with its
     id in the cursor (and, when [track], its ancestor path — empty on a
     hit, which is safe for every caller, see above).

     The retry path after a [Restart] ([first] false) must NOT re-probe
     the cache: a hit
     can keep serving the exact leaf whose unfinished SMO the restart is
     waiting on. Concretely: a split posted under a hit's empty ancestor
     path leaves Stage III to help-along, and once the left node's
     prealloc block is exhausted every append attempt consolidates —
     which refuses chains with a pending SMO — and restarts; only a
     from-root descent help-completes the separator and unblocks the
     node. Re-probing would validate the same entry forever (the head is
     a live, in-range leaf) and livelock. So each op consults the cache
     on its first attempt only; retries descend for real, which both
     guarantees progress and repairs the cache via the refill. *)
  let point_leaf t ~tid ~track ~first k =
    if not (lc_enabled t) then descend_root t ~tid ~track k
    else if not first then descend_refill t ~tid ~track k
    else if t.st.(tid).(f_lc_bypass) > 0 then begin
      t.st.(tid).(f_lc_bypass) <- t.st.(tid).(f_lc_bypass) - 1;
      descend_root t ~tid ~track k
    end
    else
      let head = lc_probe t ~tid k in
      if head != no_leaf then begin
        lc_count_hit t ~tid;
        lc_window_step t ~tid ~hit:true;
        if track then t.cur.(tid).c_path <- [];
        head
      end
      else begin
        lc_count_miss t ~tid;
        lc_window_step t ~tid ~hit:false;
        descend_refill t ~tid ~track k
      end

  (* ---------------------------------------------------------------- *)
  (* Leaf probing (existence / visibility, §3.1 + §4.4)                *)
  (* ---------------------------------------------------------------- *)

  (* Shared base-node search: clamp the §4.4 shortcut range to the page
     and run the one {!Leaf_page} lower bound. [leaf_probe_cmps] charges
     the search's deterministic comparison bound. *)
  let base_search t ~tid pg k ~smin ~smax =
    let n = P.length pg in
    let ss = t.cfg.search_shortcuts in
    let lo0 = if not ss then 0 else if smin < n then smin else n in
    let hi0 = if (not ss) || smax > n then n else smax in
    (* an inverted range means stale offsets: search the whole page *)
    let inverted = lo0 > hi0 in
    let lo0 = if inverted then 0 else lo0 in
    let hi0 = if inverted then n else hi0 in
    if Bw_obs.enabled t.o then
      Bw_obs.add t.o ~tid Bw_obs.C_leaf_probe_cmps
        (P.search_cost_n (hi0 - lo0));
    P.lower_bound_range ~tid pg k ~lo:lo0 ~hi:hi0

  (* Unique-key leaf walk (§3.1: stops at the first delta carrying the
     key) — the one probe behind point reads, batch reads and the write
     cores. Returns the visible value; a loop over local mutable state,
     so it allocates nothing but the [Some]. Side results go to the
     thread's cursor: the §4.3 base offset for a delta the caller may
     append, and how many delta records the walk crossed (the read-side
     consolidation budget). The comparison that tests each delta's key
     also narrows the §4.4 shortcut range over the base. *)
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
      | LD d -> (
          incr walked;
          cnt tid Counters.Pointer_deref;
          match d.l_op with
          | L_ins (k', v) | L_upd (k', _, v) | L_del (k', v) ->
              cnt tid Counters.Key_compare;
              let c = K.compare k k' in
              if c = 0 then begin
                (match d.l_op with L_del _ -> () | _ -> res := Some v);
                off := if !poisoned then -1 else d.l_offset;
                fin := true
              end
              else begin
                (if t.cfg.search_shortcuts then
                   let o = d.l_offset in
                   if o >= 0 then
                     if c > 0 then (if o > !smin then smin := o)
                     else if o < !smax then smax := o);
                e := d.l_next
              end
          | L_split _ | L_remove ->
              (* keys >= a split key moved right; the descent already
                 ensured k < it *)
              e := d.l_next
          | L_merge (km, right, _) ->
              cnt tid Counters.Key_compare;
              poisoned := true;
              e := if K.compare k km >= 0 then right else d.l_next)
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
    let rec walk e =
      match e with
      | LD d -> (
          cnt tid Counters.Pointer_deref;
          match d.l_op with
          | L_ins (k', v) ->
              let c = K.compare k k' in
              cnt tid Counters.Key_compare;
              narrow d.l_offset c;
              if c = 0 then begin
                note_offset d.l_offset;
                if not (take_pending v) then Growable.push pres v
              end;
              walk d.l_next
          | L_del (k', v) ->
              let c = K.compare k k' in
              cnt tid Counters.Key_compare;
              narrow d.l_offset c;
              if c = 0 then begin
                note_offset d.l_offset;
                Growable.push dels v
              end;
              walk d.l_next
          | L_upd (k', vold, vnew) ->
              let c = K.compare k k' in
              cnt tid Counters.Key_compare;
              narrow d.l_offset c;
              if c = 0 then begin
                note_offset d.l_offset;
                if not (take_pending vnew) then Growable.push pres vnew;
                Growable.push dels vold
              end;
              walk d.l_next
          | L_split _ -> walk d.l_next
          | L_merge (km, right, _) ->
              cnt tid Counters.Key_compare;
              delta_offset := -2;
              if K.compare k km >= 0 then walk right else walk d.l_next
          | L_remove -> walk d.l_next)
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
    cnt tid Counters.Epoch_enter;
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
        let r0 = t.st.(tid).(f_restarts) in
        let x = f () in
        Bw_obs.observe s ~tid series (Bw_obs.now_ns () - t0);
        Bw_obs.observe s ~tid Bw_obs.Val_op_restarts
          (t.st.(tid).(f_restarts) - r0);
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
    let m = meta_of head in
    match
      if m.size > t.cfg.leaf_max then split_node t ~tid id head parent_path
      else if m.depth >= t.cfg.leaf_chain_max then
        try_consolidate t ~tid id head
      else begin
        if check_underflow && m.size < t.cfg.leaf_min then
          merge_node t ~tid id head parent_path;
        head
      end
    with
    | h -> h
    | exception Restart ->
        cnt tid Counters.Restart;
        head

  (* §6.3 "disable delta updates": rewrite the leaf base copy-on-write
     instead of appending a delta. Only valid when the chain is a bare
     base (single-threaded experiments consolidate eagerly); [no_leaf]
     when it is not. *)
  let try_inplace_insert t ~tid id (head : elem) parent_path k v =
    match head with
    | Leaf b ->
        let pg = b.lb_page in
        let pos = P.lower_bound ~tid pg k in
        let repl =
          Leaf
            {
              b with
              lb_page = P.with_inserted pg pos k v;
              lb_meta = { b.lb_meta with size = P.length pg + 1 };
            }
        in
        if not (mt_cas t ~tid id ~expect:head ~repl) then begin
          sbump t tid f_failed_cas;
          raise Restart
        end;
        post_append_leaf t ~tid id repl parent_path ~check_underflow:false
    | _ -> no_leaf

  (* Append one data delta on [head] (leaf [id]) at base offset [offset],
     changing the node's size by [dsize]. *)
  let append_data t ~tid id head parent_path op ~dsize ~offset
      ~check_underflow =
    if head_is_append_blocked head then raise Restart;
    claim_slot t ~tid id head;
    let m = meta_of head in
    let d =
      LD
        {
          l_op = op;
          l_next = head;
          l_meta =
            {
              size = m.size + dsize;
              depth = m.depth + 1;
              lo = m.lo;
              hi = m.hi;
              right = m.right;
            };
          l_offset = offset;
        }
    in
    cnt tid Counters.Allocation;
    if not (mt_cas t ~tid id ~expect:head ~repl:d) then begin
      sbump t tid f_failed_cas;
      slot_wasted head;
      raise Restart
    end;
    let h = post_append_leaf t ~tid id d parent_path ~check_underflow in
    t.cur.(tid).c_ok <- true;
    h

  (* The write cores work on the leaf a descent or cache hit just left in
     the cursor (its id, and its ancestor path — possibly empty), so the
     point ops and the batch path (which loads its cached traversal into
     the cursor) share one copy of the delta-append protocol. Each
     returns the head under which its outcome is current — what
     [post_append_leaf] reports after an append, the probed head on a
     no-op — so the batch path keeps probing without re-reading the
     mapping-table cell; the point-op boolean goes to [c_ok]. *)
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
      let offset = c.c_offset in
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
        append_data t ~tid id head path (L_ins (k, v)) ~dsize:1 ~offset
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
        append_data t ~tid id head path (L_del (k, victim)) ~dsize:(-1)
          ~offset:c.c_offset ~check_underflow:true

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
        append_data t ~tid id head path (L_upd (k, vold, v)) ~dsize:0
          ~offset:c.c_offset ~check_underflow:false

  (* ---------------------------------------------------------------- *)
  (* Point operations                                                  *)
  (* ---------------------------------------------------------------- *)

  (* One point op, read or write: [step t ~tid head k x] on the leaf
     owning [k], whose id (and, when [track], ancestor path) is in the
     cursor. Written without closures — the retry loop is a recursive
     function, the epoch bracket an exception match and [step] a
     top-level function — so the bracket allocates nothing. *)
  let rec op_retry t ~tid ~track ~first k x step =
    match step t ~tid (point_leaf t ~tid ~track ~first k) k x with
    | r -> r
    | exception Restart ->
        count_restart t ~tid;
        op_retry t ~tid ~track ~first:false k x step

  let op_body t ~tid ~track k x step =
    cnt tid Counters.Epoch_enter;
    Epoch.op_begin t.epoch ~tid;
    match op_retry t ~tid ~track ~first:true k x step with
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
    let row = t.st.(tid) in
    let c = t.cur.(tid) in
    let n = row.(f_read_walk) + c.c_walked in
    if n < t.cfg.leaf_max then row.(f_read_walk) <- n
    else begin
      row.(f_read_walk) <- 0;
      match try_consolidate t ~tid c.c_id head with
      | h when h != head ->
          sbump t tid f_read_consolidations;
          if Bw_obs.enabled t.o then
            Bw_obs.incr t.o ~tid Bw_obs.C_read_consolidations
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
    t.cur.(tid).c_walked <- (meta_of head).depth;
    probe_leaf_sets t ~tid head k

  let find_sets t ~tid head k =
    match lookup_sets t ~tid head k with v :: _ -> Some v | [] -> None

  (* A point read's step: [probe] on the leaf, then the budget. *)
  let read_step t ~tid head k probe =
    if Bw_obs.enabled t.o then
      Bw_obs.observe t.o ~tid Bw_obs.Val_chain_depth (meta_of head).depth;
    let r = probe t ~tid head k in
    if t.cfg.read_consolidation then read_budget t ~tid head;
    r

  let read_body t ~tid k probe = op_body t ~tid ~track:false k probe read_step

  (* Public write/read entry points: the null-sink path must not even
     allocate the thunk [timed] would take, so the branch happens here
     and the instrumented arm builds its closure only when a registry is
     attached. *)
  let insert t ?(tid = 0) k v =
    sbump t tid f_inserts;
    match t.o with
    | Bw_obs.Null -> write_body t ~tid k v insert_core
    | Bw_obs.To _ ->
        timed t ~tid Bw_obs.Lat_insert (fun () ->
            write_body t ~tid k v insert_core)

  let delete t ?(tid = 0) k v =
    sbump t tid f_deletes;
    match t.o with
    | Bw_obs.Null -> write_body t ~tid k v delete_core
    | Bw_obs.To _ ->
        timed t ~tid Bw_obs.Lat_delete (fun () ->
            write_body t ~tid k v delete_core)

  let update t ?(tid = 0) k v =
    sbump t tid f_updates;
    match t.o with
    | Bw_obs.Null -> write_body t ~tid k v update_core
    | Bw_obs.To _ ->
        timed t ~tid Bw_obs.Lat_update (fun () ->
            write_body t ~tid k v update_core)

  let read t ~tid k probe =
    sbump t tid f_lookups;
    match t.o with
    | Bw_obs.Null -> read_body t ~tid k probe
    | Bw_obs.To _ ->
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
      Bw_obs.observe t.o ~tid Bw_obs.Val_chain_depth (meta_of head).depth;
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
        let m = meta_of (mt_get t ~tid aid) in
        if kb k m.lo >= 0 && kb k m.hi < 0 then
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
  let exec_batch_body t ~tid (ops : (key * batch_op) array) perm
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
    for j = 0 to Array.length perm - 1 do
      let i = perm.(j) in
      let k, op = ops.(i) in
      let pending = ref true in
      while !pending do
        match
          (let m = meta_of !head in
           if !head == no_leaf || kb k m.lo < 0 || kb k m.hi >= 0 then begin
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
      Array.iter
        (fun (_, op) ->
          match op with
          | B_insert _ -> sbump t tid f_inserts
          | B_update _ | B_upsert _ -> sbump t tid f_updates
          | B_delete _ -> sbump t tid f_deletes
          | B_get -> sbump t tid f_lookups)
        ops;
      let perm =
        let p = t.bperm.(tid) in
        if Array.length p = n then p
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
      cnt tid Counters.Epoch_enter;
      Epoch.op_begin t.epoch ~tid;
      let redescents =
        match exec_batch_body t ~tid ops perm results with
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
          if t.cfg.fast_consolidation then
            consolidate_leaf_chain ~tid head
          else None
        with
        | Some page -> page
        | None -> P.build (Growable.to_array (gather_leaf ~tid head)))

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
            sbump t tid f_read_consolidations;
            if Bw_obs.enabled t.o then
              Bw_obs.incr t.o ~tid Bw_obs.C_read_consolidations;
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
      let m = meta_of head in
      (scan_leaf_page t ~tid t.cur.(tid).c_id head, m.lo, m.hi)

    (* first item >= k, possibly skipping empty nodes to the right *)
    let rec position_forward it k =
      let items, lo, hi = snapshot_node it.tree ~tid:it.tid k in
      it.items <- items;
      it.lo <- lo;
      it.hi <- hi;
      let n = P.length items in
      let pos = P.lower_bound ~tid:it.tid items k in
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
            cnt tid Counters.Node_visit;
            let head = mt_get t ~tid id in
            (match head with
            | LD { l_op = L_remove; _ } | ID { i_op = I_remove; _ } ->
                raise Restart
            | _ -> ());
            let m = meta_of head in
            if cmp_bound m.hi (B klow) < 0 && m.right <> nil_id then
              (* overshoot correction is handled at the leaf level *)
              ()
            ;
            if is_leaf_elem head then (id, head)
            else begin
              let items = gather_inner ~tid head in
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
            let m = meta_of head in
            if cmp_bound m.hi (B klow) < 0 && m.right <> nil_id then begin
              let rhead = mt_get t ~tid m.right in
              let rm = meta_of rhead in
              if cmp_bound rm.lo (B klow) < 0 then rightmost m.right rhead
              else (id, head)
            end
            else (id, head)
          in
          let id, head = rightmost id head in
          let m = meta_of head in
          let items = scan_leaf_page t ~tid id head in
          it.items <- items;
          it.lo <- m.lo;
          it.hi <- m.hi;
          (* last index with key < klow *)
          let pos = P.lower_bound ~tid items klow - 1 in
          if pos >= 0 then it.pos <- pos
          else
            match m.lo with
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
         | LD { l_op = L_remove; _ } | ID { i_op = I_remove; _ } ->
             raise Restart
         | _ -> ());
         if is_leaf_elem head then (id, head)
         else
           let items = gather_inner ~tid head in
           down (snd (Growable.get items 0))
       in
       let id, head = down (Atomic.get t.root) in
       let m = meta_of head in
       it.items <- scan_leaf_page t ~tid id head;
       it.lo <- m.lo;
       it.hi <- m.hi;
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
      let pos = ref (P.lower_bound ~tid items k) in
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
          match consolidate_leaf_chain ~tid head with
          | Some page -> page
          | None ->
              P.build (Growable.to_array (gather_leaf ~tid head)))
    in
    let first =
      with_epoch t ~tid @@ fun () ->
      retry_loop t ~tid @@ fun () ->
      let rec down id =
        let head = mt_get t ~tid id in
        (match head with
        | LD { l_op = L_remove; _ } | ID { i_op = I_remove; _ } ->
            raise Restart
        | _ -> ());
        if is_leaf_elem head then head
        else
          let items = gather_inner ~tid head in
          down (snd (Growable.get items 0))
      in
      let head = down (Atomic.get t.root) in
      (materialize head, (meta_of head).hi)
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
             (materialize head, (meta_of head).hi))
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

  let op_stats t =
    {
      inserts = ssum t f_inserts;
      deletes = ssum t f_deletes;
      updates = ssum t f_updates;
      lookups = ssum t f_lookups;
      splits = ssum t f_splits;
      merges = ssum t f_merges;
      consolidations = ssum t f_consolidations;
      failed_cas = ssum t f_failed_cas;
      restarts = ssum t f_restarts;
      smo_helps = ssum t f_smo_helps;
      prealloc_overflows = ssum t f_prealloc_overflows;
      read_consolidations = ssum t f_read_consolidations;
    }

  let prealloc_util = function
    | None -> None
    | Some pre ->
        let used = min (Atomic.get pre.used) pre.cap in
        let wasted = min (Atomic.get pre.wasted) used in
        Some (float_of_int (used - wasted) /. float_of_int pre.cap)

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
    and lutil_n = ref 0 in
    let rec walk id depth max_depth =
      let head = mt_get t ~tid id in
      let m = meta_of head in
      if is_leaf_elem head then begin
        incr leaf_nodes;
        leaf_chain := !leaf_chain + m.depth;
        leaf_size := !leaf_size + m.size;
        (match prealloc_util (prealloc_of head) with
        | Some u ->
            lutil := !lutil +. u;
            incr lutil_n
        | None -> ());
        max !max_depth (depth + 1) |> fun d -> max_depth := d
      end
      else begin
        incr inner_nodes;
        inner_chain := !inner_chain + m.depth;
        inner_size := !inner_size + m.size;
        (match prealloc_util (prealloc_of head) with
        | Some u ->
            iutil := !iutil +. u;
            incr iutil_n
        | None -> ());
        let children = gather_inner ~tid head in
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
      depth = !max_depth;
    }

  let iter_nodes t f =
    let tid = 0 in
    let rec walk id =
      let head = mt_get t ~tid id in
      let m = meta_of head in
      f ~leaf:(is_leaf_elem head) ~chain:m.depth ~size:m.size;
      if not (is_leaf_elem head) then
        Growable.iter (fun (_, cid) -> walk cid) (gather_inner ~tid head)
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

  let mapping_table_stats t =
    {
      allocated = Mapping_table.high_water t.table;
      freed = Mapping_table.free_list_length t.table;
      chunks = Mapping_table.chunks_allocated t.table;
      table_capacity = Mapping_table.capacity t.table;
    }

  let leaf_cache_stats t =
    {
      lc_hits = ssum t f_lc_hits;
      lc_misses = ssum t f_lc_misses;
      lc_stale_verifies = ssum t f_lc_stale;
      lc_invalidations = ssum t f_lc_inval;
      lc_smo_events = Atomic.get t.smo_epoch;
      lc_occupied =
        (let n = ref 0 in
         for s = 0 to (Array.length t.lcache / 3) - 1 do
           if t.lcache.(3 * s) >= 0 then incr n
         done;
         !n);
      lc_slots = Array.length t.lcache / 3;
    }

  (* Harness oracle: a validated cache hit must name the same leaf a
     from-root descent finds. A concurrent SMO can move the key between
     the probe and the descent, so a single disagreement proves nothing;
     each retry re-validates against the then-current tree, so an
     implementation whose validation is sound converges while one that
     can serve a wrong leaf disagrees persistently. *)
  let leaf_cache_check t ~tid k =
    let rec go attempts =
      let agree =
        with_epoch t ~tid @@ fun () ->
        retry_loop t ~tid @@ fun () ->
        if lc_probe t ~tid k == no_leaf then true
        else
          let id = t.cur.(tid).c_id in
          ignore (descend_root t ~tid ~track:false k);
          id = t.cur.(tid).c_id
      in
      agree || (attempts > 1 && go (attempts - 1))
    in
    go 4

  (* Test oracle for the unboxed separators: the leaf the descent
     reaches for [k] must be the one found by routing every inner level
     through its consolidated view instead — [gather_inner]'s (bound,
     child) items searched with bound comparisons — with the same B-link
     right moves. *)
  let routing_check t ~tid k =
    let rec via_gather id =
      let head = mt_get t ~tid id in
      let m = meta_of head in
      if kb k m.hi >= 0 && m.right <> nil_id then via_gather m.right
      else if is_leaf_elem head then id
      else
        let _, cid, _ = inner_locate_exact ~tid head k in
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

  (* Single-threaded full check: key ordering, bound containment, meta
     consistency, leaf-level sibling chain continuity. *)
  let verify_invariants t =
    let tid = 0 in
    let leaves : (bound * bound * int * int) Growable.t = Growable.create () in
    (* (lo, hi, right, id) in key order *)
    let rec walk id ~lo ~hi =
      let head = mt_get t ~tid id in
      let m = meta_of head in
      if cmp_bound m.lo lo <> 0 then
        fail_inv "node %d: lo %a expected %a" id pp_bound m.lo pp_bound lo;
      if cmp_bound m.hi hi > 0 then
        fail_inv "node %d: hi %a beyond expected %a" id pp_bound m.hi pp_bound hi;
      if is_leaf_elem head then begin
        let items = Growable.to_array (gather_leaf ~tid head) in
        if Array.length items <> m.size then
          fail_inv "leaf %d: meta size %d but %d items" id m.size
            (Array.length items);
        Array.iteri
          (fun i (k, _) ->
            if kb k m.lo < 0 then fail_inv "leaf %d: key below lo" id;
            if kb k m.hi >= 0 then fail_inv "leaf %d: key above hi" id;
            if i > 0 && K.compare (fst items.(i - 1)) k > 0 then
              fail_inv "leaf %d: keys out of order" id;
            if
              t.cfg.unique_keys && i > 0
              && K.compare (fst items.(i - 1)) k = 0
            then fail_inv "leaf %d: duplicate key in unique mode" id)
          items;
        Growable.push leaves (m.lo, m.hi, m.right, id)
      end
      else begin
        (match chain_base head with
        | Inner b ->
            let bm = b.ib_meta and seps = b.ib_seps in
            if Array.length b.ib_ids <> Array.length seps + 1 then
              fail_inv "inner %d: %d children for %d separators" id
                (Array.length b.ib_ids) (Array.length seps);
            Array.iteri
              (fun i s ->
                if kb s bm.lo <= 0 || kb s bm.hi >= 0 then
                  fail_inv "inner %d: base separator outside (lo, hi)" id;
                if i > 0 && K.compare seps.(i - 1) s >= 0 then
                  fail_inv "inner %d: base separators not ascending" id)
              seps
        | _ -> fail_inv "inner %d: chain not based on an inner node" id);
        let items = Growable.to_array (gather_inner ~tid head) in
        if Array.length items <> m.size then
          fail_inv "inner %d: meta size %d but %d items" id m.size
            (Array.length items);
        if Array.length items = 0 then fail_inv "inner %d: empty" id;
        if cmp_bound (fst items.(0)) m.lo <> 0 then
          fail_inv "inner %d: first separator is not lo" id;
        Array.iteri
          (fun i (sep, cid) ->
            if i > 0 && cmp_bound (fst items.(i - 1)) sep >= 0 then
              fail_inv "inner %d: separators out of order" id;
            let child_hi =
              if i + 1 < Array.length items then fst items.(i + 1) else m.hi
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
    let pp_op ppf = function
      | L_ins (k, _) -> Format.fprintf ppf "ins(%a)" K.pp k
      | L_del (k, _) -> Format.fprintf ppf "del(%a)" K.pp k
      | L_upd (k, _, _) -> Format.fprintf ppf "upd(%a)" K.pp k
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
          Format.fprintf ppf "base{%a->%d" pp_bound b.ib_meta.lo b.ib_ids.(0);
          Array.iteri
            (fun i s -> Format.fprintf ppf " %a->%d" K.pp s b.ib_ids.(i + 1))
            b.ib_seps;
          Format.fprintf ppf "}"
      | LD d ->
          Format.fprintf ppf "%a :: %a" pp_op d.l_op pp_chain d.l_next
      | ID d ->
          Format.fprintf ppf "%a :: %a" pp_iop d.i_op pp_chain d.i_next
    in
    let rec walk id indent =
      let head = mt_get t ~tid id in
      let m = meta_of head in
      Format.fprintf ppf "%s%s %d [%a,%a) right=%d size=%d depth=%d: %a@."
        indent
        (if is_leaf_elem head then "leaf" else "inner")
        id pp_bound m.lo pp_bound m.hi m.right m.size m.depth pp_chain head;
      if not (is_leaf_elem head) then
        Growable.iter
          (fun (_, cid) -> walk cid (indent ^ "  "))
          (gather_inner ~tid head)
    in
    walk (Atomic.get t.root) ""

  (* ---------------------------------------------------------------- *)
  (* §6.3: frozen direct-pointer tree (mapping table disabled)         *)
  (* ---------------------------------------------------------------- *)

  type frozen = F_leaf of P.t | F_inner of key array * frozen array

  let freeze t =
    consolidate_all t;
    let tid = 0 in
    let rec conv id =
      match mt_get t ~tid id with
      | Leaf b -> F_leaf b.lb_page
      | Inner b -> F_inner (b.ib_seps, Array.map conv b.ib_ids)
      | LD _ | ID _ ->
          (* consolidate_all left a delta behind (concurrent writer):
             freezing is a single-threaded operation *)
          invalid_arg "Bwtree.freeze: tree is being mutated"
    in
    conv (Atomic.get t.root)

  let frozen_lookup fz k =
    let tid = 0 in
    let rec go = function
      | F_inner (seps, children) ->
          cnt tid Counters.Pointer_deref;
          go children.(sep_index ~tid seps k)
      | F_leaf pg ->
          let n = P.length pg in
          let pos = P.lower_bound ~tid pg k in
          let out = ref [] in
          let i = ref pos in
          while !i < n && K.compare (P.key pg !i) k = 0 do
            out := P.value pg !i :: !out;
            incr i
          done;
          !out
    in
    go fz
end
