(** In-memory B+Tree synchronized with Optimistic Lock Coupling (OLC),
    after Leis et al., "The ART of practical synchronization" (DaMoN 2016)
    — the lock-based baseline the paper finds outperforms the Bw-Tree.

    Every node carries a version word: bit 0 is the write-lock bit, the
    upper bits count modifications. Readers never write shared memory: they
    sample the version, read optimistically, and re-validate; a concurrent
    writer forces a restart. Writers lock only the nodes they modify.
    Structure modifications use eager splitting on the way down, so a leaf
    split never needs to propagate more than one level.

    Deletion removes keys but does not rebalance (leaves may underflow);
    this is the common practice for in-memory B+Trees driven by OLTP
    workloads and does not affect the paper's workloads, which never shrink
    the tree. *)

exception Restart

module Make (K : Bwtree.KEY) (V : Bwtree.VALUE) = struct
  type key = K.t
  type value = V.t

  (* Node capacity: 4 KB-ish nodes as configured in §6 ("We configure the
     B+Tree to use 4KB node size"): 256 entries of (8B key, 8B payload). *)
  let leaf_capacity = 256
  let inner_capacity = 256

  type node = {
    version : int Atomic.t;  (* bit 0 = locked, bits 1.. = counter *)
    mutable count : int;
    keys : key array;
    kind : kind;
  }

  and kind =
    | Leaf of leaf
    | Inner of inner

  and leaf = { vals : value array; mutable next : node option }

  and inner = {
    (* children.(i) holds keys < keys.(i); children.(count) the rest *)
    children : node array;
  }

  type t = { root : node Atomic.t; o : Bw_obs.sink }

  (* Table 3 probes: one inlined branch on the null sink *)
  let cnt o tid c =
    match o with Bw_obs.Null -> () | Bw_obs.To _ -> Bw_obs.incr o ~tid c

  (* --- version-lock primitives --- *)

  let is_locked v = v land 1 = 1

  let read_lock n =
    let v = Atomic.get n.version in
    if is_locked v then raise Restart;
    v

  let validate n v = if Atomic.get n.version <> v then raise Restart

  let upgrade n v =
    if not (Atomic.compare_and_set n.version v (v + 1)) then raise Restart

  let write_unlock n =
    Atomic.set n.version (Atomic.get n.version + 1)

  (* --- construction --- *)

  let new_leaf () =
    {
      version = Atomic.make 0;
      count = 0;
      keys = Array.make leaf_capacity K.dummy;
      kind = Leaf { vals = Array.make leaf_capacity (Obj.magic 0 : value); next = None };
    }

  let new_inner () =
    {
      version = Atomic.make 0;
      count = 0;
      keys = Array.make inner_capacity K.dummy;
      kind =
        Inner { children = Array.make (inner_capacity + 1) (Obj.magic 0 : node) };
    }

  let create ?(obs = Bw_obs.Null) () =
    { root = Atomic.make (new_leaf ()); o = obs }

  (* --- search within a node --- *)

  (* The first [count] entries, clamped to the key array: racing reads
     may observe a torn (count, keys) pair — the caller re-validates the
     version before trusting a search over them. *)
  let live_count n =
    let count = n.count in
    if count < 0 then 0 else min count (Array.length n.keys)

  (* Both searches run the key type's kernel, as the Bw-Tree's node and
     page searches do, and charge its comparison bound. *)
  let charge o ~tid count =
    match o with
    | Bw_obs.Null -> ()
    | Bw_obs.To _ ->
        Bw_obs.add o ~tid Bw_obs.C_key_compares
          (Bwtree.Leaf_page.search_cost_n count)

  (* first index with keys.(i) >= k *)
  let lower_bound o ~tid n k =
    let count = live_count n in
    charge o ~tid count;
    K.lower_bound_in n.keys k ~lo:0 ~hi:count

  let child_for o ~tid n k =
    match n.kind with
    | Inner i ->
        (* route equal keys to the right subtree: separator keys.(i) is
           the smallest key of children.(i+1), so the child is the first
           separator > k *)
        let count = live_count n in
        charge o ~tid count;
        i.children.(K.upper_bound_in n.keys k ~lo:0 ~hi:count)
    | Leaf _ -> assert false

  let is_full n =
    match n.kind with
    | Leaf _ -> n.count >= leaf_capacity
    | Inner _ -> n.count >= inner_capacity - 1

  (* --- splits (caller holds write locks on [parent] and [child]) --- *)

  (* returns the separator pushed up and the new right node *)
  let split_node child =
    let mid = child.count / 2 in
    match child.kind with
    | Leaf l ->
        let right = new_leaf () in
        let rl = match right.kind with Leaf rl -> rl | _ -> assert false in
        let moved = child.count - mid in
        Array.blit child.keys mid right.keys 0 moved;
        Array.blit l.vals mid rl.vals 0 moved;
        right.count <- moved;
        rl.next <- l.next;
        l.next <- Some right;
        child.count <- mid;
        (right.keys.(0), right)
    | Inner i ->
        let right = new_inner () in
        let ri = match right.kind with Inner ri -> ri | _ -> assert false in
        let sep = child.keys.(mid) in
        let moved = child.count - mid - 1 in
        Array.blit child.keys (mid + 1) right.keys 0 moved;
        Array.blit i.children (mid + 1) ri.children 0 (moved + 1);
        right.count <- moved;
        child.count <- mid;
        (sep, right)

  let insert_into_inner parent sep right =
    match parent.kind with
    | Inner i ->
        let pos = ref parent.count in
        while !pos > 0 && K.compare parent.keys.(!pos - 1) sep > 0 do
          parent.keys.(!pos) <- parent.keys.(!pos - 1);
          i.children.(!pos + 1) <- i.children.(!pos);
          decr pos
        done;
        parent.keys.(!pos) <- sep;
        i.children.(!pos + 1) <- right;
        parent.count <- parent.count + 1
    | Leaf _ -> assert false

  (* --- retry plumbing --- *)

  let rec retry t ~tid f =
    try f () with
    | Restart ->
        cnt t.o tid Bw_obs.C_restarts;
        Domain.cpu_relax ();
        retry t ~tid f
    | Invalid_argument _ ->
        (* a torn optimistic read indexed out of bounds; treat as restart *)
        cnt t.o tid Bw_obs.C_restarts;
        Domain.cpu_relax ();
        retry t ~tid f

  (* --- operations --- *)

  (* Descend with lock coupling; on reaching the leaf, call
     [at_leaf leaf version]. Full children are split eagerly on the way
     down, so the leaf-level operation never propagates. *)
  let descend t ~tid k ~for_insert at_leaf =
    let root = Atomic.get t.root in
    let v = read_lock root in
    (* a stale root pointer: re-check after sampling the version *)
    if Atomic.get t.root != root then raise Restart;
    (* eager root split *)
    if for_insert && is_full root then begin
      upgrade root v;
      if Atomic.get t.root != root then begin
        write_unlock root;
        raise Restart
      end;
      let sep, right = split_node root in
      let new_root = new_inner () in
      (match new_root.kind with
      | Inner i ->
          new_root.keys.(0) <- sep;
          i.children.(0) <- root;
          i.children.(1) <- right;
          new_root.count <- 1
      | Leaf _ -> assert false);
      let ok = Atomic.compare_and_set t.root root new_root in
      assert ok;
      write_unlock root;
      raise Restart
    end;
    let rec go node v =
      cnt t.o tid Bw_obs.C_node_visits;
      match node.kind with
      | Leaf _ -> at_leaf node v
      | Inner _ ->
          cnt t.o tid Bw_obs.C_ptr_derefs;
          let child = child_for t.o ~tid node k in
          validate node v;
          let cv = read_lock child in
          if for_insert && is_full child then begin
            (* eager split: lock parent then child *)
            upgrade node v;
            (try upgrade child cv
             with Restart ->
               write_unlock node;
               raise Restart);
            let sep, right = split_node child in
            insert_into_inner node sep right;
            write_unlock child;
            write_unlock node;
            raise Restart
          end
          else begin
            validate node v;
            go child cv
          end
    in
    go root v

  let insert t ~tid k value =
    retry t ~tid @@ fun () ->
    descend t ~tid k ~for_insert:true @@ fun leaf v ->
    let l = match leaf.kind with Leaf l -> l | Inner _ -> assert false in
    let pos = lower_bound t.o ~tid leaf k in
    if pos < leaf.count && K.compare leaf.keys.(pos) k = 0 then begin
      validate leaf v;
      false
    end
    else begin
      upgrade leaf v;
      (* re-check under the lock: position may have shifted *)
      let pos = lower_bound t.o ~tid leaf k in
      if pos < leaf.count && K.compare leaf.keys.(pos) k = 0 then begin
        write_unlock leaf;
        false
      end
      else begin
        Array.blit leaf.keys pos leaf.keys (pos + 1) (leaf.count - pos);
        Array.blit l.vals pos l.vals (pos + 1) (leaf.count - pos);
        leaf.keys.(pos) <- k;
        l.vals.(pos) <- value;
        leaf.count <- leaf.count + 1;
        write_unlock leaf;
        true
      end
    end

  let lookup t ~tid k =
    retry t ~tid @@ fun () ->
    descend t ~tid k ~for_insert:false @@ fun leaf v ->
    let l = match leaf.kind with Leaf l -> l | Inner _ -> assert false in
    let pos = lower_bound t.o ~tid leaf k in
    let result =
      if pos < leaf.count && K.compare leaf.keys.(pos) k = 0 then
        Some l.vals.(pos)
      else None
    in
    validate leaf v;
    result

  let update t ~tid k value =
    retry t ~tid @@ fun () ->
    descend t ~tid k ~for_insert:false @@ fun leaf v ->
    let l = match leaf.kind with Leaf l -> l | Inner _ -> assert false in
    let pos = lower_bound t.o ~tid leaf k in
    if pos < leaf.count && K.compare leaf.keys.(pos) k = 0 then begin
      upgrade leaf v;
      let pos = lower_bound t.o ~tid leaf k in
      if pos < leaf.count && K.compare leaf.keys.(pos) k = 0 then begin
        l.vals.(pos) <- value;
        write_unlock leaf;
        true
      end
      else begin
        write_unlock leaf;
        false
      end
    end
    else begin
      validate leaf v;
      false
    end

  let delete t ~tid k =
    retry t ~tid @@ fun () ->
    descend t ~tid k ~for_insert:false @@ fun leaf v ->
    let l = match leaf.kind with Leaf l -> l | Inner _ -> assert false in
    let pos = lower_bound t.o ~tid leaf k in
    if pos < leaf.count && K.compare leaf.keys.(pos) k = 0 then begin
      upgrade leaf v;
      let pos = lower_bound t.o ~tid leaf k in
      if pos < leaf.count && K.compare leaf.keys.(pos) k = 0 then begin
        Array.blit leaf.keys (pos + 1) leaf.keys pos (leaf.count - pos - 1);
        Array.blit l.vals (pos + 1) l.vals pos (leaf.count - pos - 1);
        leaf.count <- leaf.count - 1;
        write_unlock leaf;
        true
      end
      else begin
        write_unlock leaf;
        false
      end
    end
    else begin
      validate leaf v;
      false
    end

  (* Range scan: collect up to [n] items starting at the first key >= k,
     following leaf links; each leaf is read optimistically and validated
     before its items are accepted. Items are buffered during the
     optimistic attempt and handed to [visit] only once the whole attempt
     has validated, so a restarted scan never double-reports. *)
  let scan t ~tid k ~n visit =
    let items =
      retry t ~tid @@ fun () ->
      descend t ~tid k ~for_insert:false @@ fun leaf v ->
      let acc = ref [] in
      let visited = ref 0 in
      let rec walk leaf v start =
        let l = match leaf.kind with Leaf l -> l | Inner _ -> assert false in
        let count = min leaf.count (Array.length leaf.keys) in
        let here = max 0 (count - start) in
        let take = min here (n - !visited) in
        (* copy before [validate]: after it succeeds these snapshots are
           known-consistent even if a writer touches the leaf next *)
        let keys = Array.sub leaf.keys start take in
        let vals = Array.sub l.vals start take in
        let next = l.next in
        validate leaf v;
        for i = 0 to take - 1 do
          acc := (keys.(i), vals.(i)) :: !acc
        done;
        visited := !visited + take;
        if !visited < n then
          match next with
          | None -> ()
          | Some nx ->
              let nv = read_lock nx in
              walk nx nv 0
      in
      let start = lower_bound t.o ~tid leaf k in
      walk leaf v start;
      !acc
    in
    List.fold_left
      (fun m (k, v) ->
        visit k v;
        m + 1)
      0 (List.rev items)

  (* --- single-threaded introspection (tests) --- *)

  let rec check_node node ~lo ~hi ~is_root =
    let in_range k =
      (match lo with None -> true | Some l -> K.compare k l >= 0)
      && match hi with None -> true | Some h -> K.compare k h < 0
    in
    for i = 0 to node.count - 1 do
      if not (in_range node.keys.(i)) then failwith "btree: key out of range";
      if i > 0 && K.compare node.keys.(i - 1) node.keys.(i) >= 0 then
        failwith "btree: keys out of order"
    done;
    match node.kind with
    | Leaf _ -> ()
    | Inner inner ->
        if node.count = 0 && not is_root then failwith "btree: empty inner";
        for i = 0 to node.count do
          let lo' = if i = 0 then lo else Some node.keys.(i - 1) in
          let hi' = if i = node.count then hi else Some node.keys.(i) in
          check_node inner.children.(i) ~lo:lo' ~hi:hi' ~is_root:false
        done

  let verify_invariants t =
    check_node (Atomic.get t.root) ~lo:None ~hi:None ~is_root:true

  let cardinal t =
    let rec leftmost node =
      match node.kind with
      | Leaf _ -> node
      | Inner i -> leftmost i.children.(0)
    in
    let rec count node acc =
      let l = match node.kind with Leaf l -> l | Inner _ -> assert false in
      let acc = acc + node.count in
      match l.next with None -> acc | Some nx -> count nx acc
    in
    count (leftmost (Atomic.get t.root)) 0

  let memory_words t = Obj.reachable_words (Obj.repr t)
end
