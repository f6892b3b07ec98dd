(** Adaptive Radix Tree (Leis et al., ICDE 2013) with Optimistic Lock
    Coupling (Leis et al., DaMoN 2016) — the fastest comparator in the
    paper's evaluation (§6).

    Keys are binary-comparable byte strings (produced by [K.to_binary]); a
    0x00 terminator byte is appended so that no stored key is a proper
    prefix of another, the standard ART requirement. Inner nodes adapt
    among the four layouts Node4 / Node16 / Node48 / Node256 and use
    pessimistic path compression (the full compressed prefix is stored).

    Synchronization follows OLC: each inner node has a version word (bit 0
    = lock); readers validate versions instead of locking, writers lock
    only the nodes they mutate, and node replacement (growth, leaf
    expansion, prefix splits) locks the parent and the node being
    replaced.

    Deletion removes the leaf and collapses single-child Node4s back into
    their parent (restoring path compression); node layouts are not shrunk
    otherwise. *)

exception Restart

module Make (K : Bwtree.KEY) (V : Bwtree.VALUE) = struct
  type key = K.t
  type value = V.t

  type node =
    | Empty
    | Leaf of { bkey : string; value : value Atomic.t }
    | N4 of {
        hdr : hdr;
        keys : Bytes.t;  (* 4 bytes *)
        children : node array;  (* 4 *)
        mutable count : int;
      }
    | N16 of {
        hdr : hdr;
        keys : Bytes.t;  (* 16, sorted *)
        children : node array;
        mutable count : int;
      }
    | N48 of {
        hdr : hdr;
        index : Bytes.t;  (* 256 bytes; 0xFF = empty, else child slot *)
        children : node array;  (* 48 *)
        mutable count : int;
      }
    | N256 of {
        hdr : hdr;
        children : node array;  (* 256, Empty = none *)
        mutable count : int;
      }

  and hdr = { version : int Atomic.t; mutable prefix : string }

  type t = { root : node Atomic.t; o : Bw_obs.sink }

  (* Table 3 probes: one inlined branch on the null sink *)
  let cnt t tid c =
    match t.o with Bw_obs.Null -> () | Bw_obs.To _ as o -> Bw_obs.incr o ~tid c

  let create ?(obs = Bw_obs.Null) () = { root = Atomic.make Empty; o = obs }

  let bkey_of k = K.to_binary k ^ "\x00"

  (* --- version-lock primitives --- *)

  let hdr_of = function
    | N4 n -> n.hdr
    | N16 n -> n.hdr
    | N48 n -> n.hdr
    | N256 n -> n.hdr
    | Empty | Leaf _ -> invalid_arg "art: no header"

  let read_lock h =
    let v = Atomic.get h.version in
    if v land 1 = 1 then raise Restart;
    v

  let validate h v = if Atomic.get h.version <> v then raise Restart

  let upgrade h v =
    if not (Atomic.compare_and_set h.version v (v + 1)) then raise Restart

  let write_unlock h = Atomic.set h.version (Atomic.get h.version + 1)

  let new_hdr prefix = { version = Atomic.make 0; prefix }

  (* --- child access --- *)

  let find_child node c =
    match node with
    | N4 n ->
        let rec go i =
          if i >= n.count then Empty
          else if Char.code (Bytes.get n.keys i) = c then n.children.(i)
          else go (i + 1)
        in
        go 0
    | N16 n ->
        let rec go i =
          if i >= n.count then Empty
          else if Char.code (Bytes.get n.keys i) = c then n.children.(i)
          else go (i + 1)
        in
        go 0
    | N48 n ->
        let slot = Char.code (Bytes.get n.index c) in
        if slot = 0xFF then Empty else n.children.(slot)
    | N256 n -> n.children.(c)
    | Empty | Leaf _ -> Empty

  let is_full = function
    | N4 n -> n.count >= 4
    | N16 n -> n.count >= 16
    | N48 n -> n.count >= 48
    | N256 _ -> false
    | Empty | Leaf _ -> false

  (* insert a child in place; the caller holds the node's lock and has
     checked it is not full *)
  let add_child node c child =
    match node with
    | N4 n ->
        Bytes.set n.keys n.count (Char.chr c);
        n.children.(n.count) <- child;
        n.count <- n.count + 1
    | N16 n ->
        Bytes.set n.keys n.count (Char.chr c);
        n.children.(n.count) <- child;
        n.count <- n.count + 1
    | N48 n ->
        (* deletions can free slots below [count], so find a free one *)
        let slot = ref 0 in
        while n.children.(!slot) != Empty do
          incr slot
        done;
        Bytes.set n.index c (Char.chr !slot);
        n.children.(!slot) <- child;
        n.count <- n.count + 1
    | N256 n ->
        n.children.(c) <- child;
        n.count <- n.count + 1
    | Empty | Leaf _ -> assert false

  (* replace an existing child pointer; caller holds the node's lock *)
  let replace_child node c child =
    match node with
    | N4 n ->
        let rec go i =
          if i >= n.count then assert false
          else if Char.code (Bytes.get n.keys i) = c then
            n.children.(i) <- child
          else go (i + 1)
        in
        go 0
    | N16 n ->
        let rec go i =
          if i >= n.count then assert false
          else if Char.code (Bytes.get n.keys i) = c then
            n.children.(i) <- child
          else go (i + 1)
        in
        go 0
    | N48 n ->
        let slot = Char.code (Bytes.get n.index c) in
        assert (slot <> 0xFF);
        n.children.(slot) <- child
    | N256 n -> n.children.(c) <- child
    | Empty | Leaf _ -> assert false

  (* grown copy of a full node (the original stays locked and is discarded
     by the caller) *)
  let grow node =
    match node with
    | N4 n ->
        let g =
          N16
            {
              hdr = new_hdr n.hdr.prefix;
              keys = Bytes.make 16 '\x00';
              children = Array.make 16 Empty;
              count = 0;
            }
        in
        for i = 0 to n.count - 1 do
          add_child g (Char.code (Bytes.get n.keys i)) n.children.(i)
        done;
        g
    | N16 n ->
        let g =
          N48
            {
              hdr = new_hdr n.hdr.prefix;
              index = Bytes.make 256 '\xFF';
              children = Array.make 48 Empty;
              count = 0;
            }
        in
        for i = 0 to n.count - 1 do
          add_child g (Char.code (Bytes.get n.keys i)) n.children.(i)
        done;
        g
    | N48 n ->
        let g =
          N256
            {
              hdr = new_hdr n.hdr.prefix;
              children = Array.make 256 Empty;
              count = 0;
            }
        in
        for c = 0 to 255 do
          let slot = Char.code (Bytes.get n.index c) in
          if slot <> 0xFF then add_child g c n.children.(slot)
        done;
        g
    | N256 _ | Empty | Leaf _ -> assert false

  let new_n4 prefix =
    N4
      {
        hdr = new_hdr prefix;
        keys = Bytes.make 4 '\x00';
        children = Array.make 4 Empty;
        count = 0;
      }

  (* longest common prefix length of a[ad..] and b[bd..] *)
  let common_prefix_len a ad b bd =
    let n = min (String.length a - ad) (String.length b - bd) in
    let rec go i = if i < n && a.[ad + i] = b.[bd + i] then go (i + 1) else i in
    go 0

  (* does bkey[depth..] start with [prefix]? returns matched length or
     raises Mismatch with the diverging position *)
  let prefix_match prefix bkey depth =
    let pl = String.length prefix in
    let rec go i =
      if i >= pl then pl
      else if
        depth + i < String.length bkey && bkey.[depth + i] = prefix.[i]
      then go (i + 1)
      else i (* mismatch at i *)
    in
    go 0

  (* --- retry plumbing --- *)

  let rec retry t ~tid f =
    try f () with
    | Restart | Invalid_argument _ ->
        cnt t tid Bw_obs.C_restarts;
        Domain.cpu_relax ();
        retry t ~tid f

  (* install a new value for the root pointer, validating the expected
     current value *)
  let cas_root t expect repl =
    if not (Atomic.compare_and_set t.root expect repl) then raise Restart

  (* A parent slot we can swing under the parent's lock (or the root). *)
  type slot =
    | Root
    | In of node * int  (* parent node, child byte *)

  let lock_and_swing t ~parent_slot ~parent_ver ~expect ~repl =
    match parent_slot with
    | Root ->
        (* the root pointer is atomic; no parent lock exists *)
        cas_root t expect repl
    | In (parent, c) ->
        let ph = hdr_of parent in
        upgrade ph parent_ver;
        if find_child parent c != expect then begin
          write_unlock ph;
          raise Restart
        end;
        replace_child parent c repl;
        write_unlock ph

  (* --- insert --- *)

  let insert t ~tid k value =
    let bkey = bkey_of k in
    retry t ~tid @@ fun () ->
    let rec go node depth parent_slot parent_ver =
      cnt t tid Bw_obs.C_node_visits;
      match node with
      | Empty ->
          (* only reachable at the root: empty children are expanded below *)
          cnt t tid Bw_obs.C_allocations;
          cas_root t Empty (Leaf { bkey; value = Atomic.make value });
          true
      | Leaf l ->
          if String.equal l.bkey bkey then false
          else begin
            (* split: new N4 holding the two leaves under their common
               prefix *)
            let cpl = common_prefix_len l.bkey depth bkey depth in
            if
              depth + cpl >= String.length l.bkey
              || depth + cpl >= String.length bkey
            then
              (* only possible when one key (with terminator) is a proper
                 prefix of the other, i.e. a key contains NUL bytes and
                 shadows a shorter key — outside ART's key contract *)
              failwith "Art_olc: key is a binary prefix of an existing key";
            let prefix = String.sub bkey depth cpl in
            let n4 = new_n4 prefix in
            let c_old = Char.code l.bkey.[depth + cpl] in
            let c_new = Char.code bkey.[depth + cpl] in
            add_child n4 c_old node;
            add_child n4 c_new (Leaf { bkey; value = Atomic.make value });
            cnt t tid Bw_obs.C_allocations;
            lock_and_swing t ~parent_slot ~parent_ver ~expect:node ~repl:n4;
            true
          end
      | N4 _ | N16 _ | N48 _ | N256 _ ->
          let h = hdr_of node in
          let v = read_lock h in
          let prefix = h.prefix in
          let matched = prefix_match prefix bkey depth in
          if matched < String.length prefix then begin
            (* prefix mismatch: split the compressed path *)
            upgrade h v;
            (* re-check under the lock *)
            if h.prefix != prefix then begin
              write_unlock h;
              raise Restart
            end;
            let keep = String.sub prefix 0 matched in
            let n4 = new_n4 keep in
            let c_old = Char.code prefix.[matched] in
            let c_new = Char.code bkey.[depth + matched] in
            (* trim the old node's prefix past the split point *)
            let trimmed =
              String.sub prefix (matched + 1)
                (String.length prefix - matched - 1)
            in
            add_child n4 c_old node;
            add_child n4 c_new
              (Leaf { bkey; value = Atomic.make value });
            cnt t tid Bw_obs.C_allocations;
            (try
               lock_and_swing t ~parent_slot ~parent_ver ~expect:node
                 ~repl:n4
             with Restart ->
               write_unlock h;
               raise Restart);
            h.prefix <- trimmed;
            write_unlock h;
            true
          end
          else begin
            let depth = depth + matched in
            if depth >= String.length bkey then raise Restart
              (* impossible with terminated keys; defensive *)
            else begin
              let c = Char.code bkey.[depth] in
              let child = find_child node c in
              validate h v;
              match child with
              | Empty ->
                  if is_full node then begin
                    (* grow: build the larger copy, then swing the parent *)
                    upgrade h v;
                    let bigger = grow node in
                    add_child bigger c
                      (Leaf { bkey; value = Atomic.make value });
                    cnt t tid Bw_obs.C_allocations;
                    (try
                       lock_and_swing t ~parent_slot ~parent_ver
                         ~expect:node ~repl:bigger
                     with Restart ->
                       write_unlock h;
                       raise Restart);
                    (* the old node stays locked forever: it is now
                       unreachable and any reader holding it restarts *)
                    true
                  end
                  else begin
                    upgrade h v;
                    add_child node c
                      (Leaf { bkey; value = Atomic.make value });
                    cnt t tid Bw_obs.C_allocations;
                    write_unlock h;
                    true
                  end
              | _ ->
                  cnt t tid Bw_obs.C_ptr_derefs;
                  go child (depth + 1) (In (node, c)) v
            end
          end
    in
    go (Atomic.get t.root) 0 Root 0

  (* --- lookup --- *)

  let lookup t ~tid k =
    let bkey = bkey_of k in
    retry t ~tid @@ fun () ->
    let rec go node depth =
      cnt t tid Bw_obs.C_node_visits;
      match node with
      | Empty -> None
      | Leaf l -> if String.equal l.bkey bkey then Some (Atomic.get l.value) else None
      | N4 _ | N16 _ | N48 _ | N256 _ ->
          let h = hdr_of node in
          let v = read_lock h in
          let matched = prefix_match h.prefix bkey depth in
          if matched < String.length h.prefix then begin
            validate h v;
            None
          end
          else begin
            let depth = depth + matched in
            if depth >= String.length bkey then begin
              validate h v;
              None
            end
            else begin
              let child = find_child node (Char.code bkey.[depth]) in
              validate h v;
              cnt t tid Bw_obs.C_ptr_derefs;
              go child (depth + 1)
            end
          end
    in
    go (Atomic.get t.root) 0

  let update t ~tid k value =
    let bkey = bkey_of k in
    retry t ~tid @@ fun () ->
    let rec go node depth =
      match node with
      | Empty -> false
      | Leaf l ->
          if String.equal l.bkey bkey then begin
            Atomic.set l.value value;
            true
          end
          else false
      | N4 _ | N16 _ | N48 _ | N256 _ ->
          let h = hdr_of node in
          let v = read_lock h in
          let matched = prefix_match h.prefix bkey depth in
          if matched < String.length h.prefix then (validate h v; false)
          else begin
            let depth = depth + matched in
            if depth >= String.length bkey then (validate h v; false)
            else begin
              let child = find_child node (Char.code bkey.[depth]) in
              validate h v;
              go child (depth + 1)
            end
          end
    in
    go (Atomic.get t.root) 0

  (* --- delete --- *)

  let remove_child node c =
    match node with
    | N4 n ->
        let rec go i =
          if i >= n.count then ()
          else if Char.code (Bytes.get n.keys i) = c then begin
            for j = i to n.count - 2 do
              Bytes.set n.keys j (Bytes.get n.keys (j + 1));
              n.children.(j) <- n.children.(j + 1)
            done;
            n.children.(n.count - 1) <- Empty;
            n.count <- n.count - 1
          end
          else go (i + 1)
        in
        go 0
    | N16 n ->
        let rec go i =
          if i >= n.count then ()
          else if Char.code (Bytes.get n.keys i) = c then begin
            for j = i to n.count - 2 do
              Bytes.set n.keys j (Bytes.get n.keys (j + 1));
              n.children.(j) <- n.children.(j + 1)
            done;
            n.children.(n.count - 1) <- Empty;
            n.count <- n.count - 1
          end
          else go (i + 1)
        in
        go 0
    | N48 n ->
        let slot = Char.code (Bytes.get n.index c) in
        if slot <> 0xFF then begin
          Bytes.set n.index c '\xFF';
          n.children.(slot) <- Empty;
          n.count <- n.count - 1
        end
    | N256 n ->
        if n.children.(c) != Empty then begin
          n.children.(c) <- Empty;
          n.count <- n.count - 1
        end
    | Empty | Leaf _ -> assert false

  let delete t ~tid k =
    let bkey = bkey_of k in
    retry t ~tid @@ fun () ->
    let rec go node depth parent_slot parent_ver =
      match node with
      | Empty -> false
      | Leaf l ->
          if not (String.equal l.bkey bkey) then false
          else begin
            (* unlink the leaf from its parent *)
            (match parent_slot with
            | Root -> cas_root t node Empty
            | In (parent, c) ->
                let ph = hdr_of parent in
                upgrade ph parent_ver;
                if find_child parent c != node then begin
                  write_unlock ph;
                  raise Restart
                end;
                remove_child parent c;
                write_unlock ph);
            true
          end
      | N4 _ | N16 _ | N48 _ | N256 _ ->
          let h = hdr_of node in
          let v = read_lock h in
          let matched = prefix_match h.prefix bkey depth in
          if matched < String.length h.prefix then (validate h v; false)
          else begin
            let depth = depth + matched in
            if depth >= String.length bkey then (validate h v; false)
            else begin
              let c = Char.code bkey.[depth] in
              let child = find_child node c in
              validate h v;
              go child (depth + 1) (In (node, c)) v
            end
          end
    in
    go (Atomic.get t.root) 0 Root 0

  (* --- range scan --- *)

  (* Ordered DFS collecting leaves with bkey >= the seek key, up to [n]
     items. The entire scan validates each visited node's version; any
     interference restarts the scan (§6: ART "iteration requires more
     memory access than the OpenBw-Tree" — this rebuild-from-root cost is
     part of that). *)
  let scan t ~tid k ~n visit =
    if n <= 0 then 0
    else begin
    let bkey = bkey_of k in
    let items =
      retry t ~tid @@ fun () ->
      let acc = ref [] in
      let visited = ref 0 in
      let exception Done in
    (* children of [node] in byte order *)
    let ordered_children node =
      match node with
      | N4 nd ->
          let xs =
            Array.init nd.count (fun i ->
                (Char.code (Bytes.get nd.keys i), nd.children.(i)))
          in
          Array.sort (fun (a, _) (b, _) -> compare a b) xs;
          xs
      | N16 nd ->
          let xs =
            Array.init nd.count (fun i ->
                (Char.code (Bytes.get nd.keys i), nd.children.(i)))
          in
          Array.sort (fun (a, _) (b, _) -> compare a b) xs;
          xs
      | N48 nd ->
          let out = ref [] in
          for c = 255 downto 0 do
            let slot = Char.code (Bytes.get nd.index c) in
            if slot <> 0xFF then out := (c, nd.children.(slot)) :: !out
          done;
          Array.of_list !out
      | N256 nd ->
          let out = ref [] in
          for c = 255 downto 0 do
            if nd.children.(c) != Empty then out := (c, nd.children.(c)) :: !out
          done;
          Array.of_list !out
      | Empty | Leaf _ -> [||]
    in
    (* [bound]: Some depth means the subtree's path equals bkey's prefix up
       to that depth, so comparisons still constrain; None = unconstrained
       (strictly greater already) *)
    let rec visit node ~path_len ~constrained =
      cnt t tid Bw_obs.C_node_visits;
      match node with
      | Empty -> ()
      | Leaf l ->
          if (not constrained) || String.compare l.bkey bkey >= 0 then begin
            acc := (l.bkey, Atomic.get l.value) :: !acc;
            incr visited;
            if !visited >= n then raise Done
          end
      | N4 _ | N16 _ | N48 _ | N256 _ ->
          let h = hdr_of node in
          let v = read_lock h in
          let prefix = h.prefix in
          let children = ordered_children node in
          validate h v;
          let plen = path_len + String.length prefix in
          (* compare this node's compressed-path extension against the
             seek key: greater ⇒ the whole subtree qualifies; smaller ⇒
             the whole subtree precedes the seek key (prune); equal ⇒
             children stay constrained *)
          let prefix_cmp =
            if not constrained then 1
            else begin
              let cmp_end = min plen (String.length bkey) in
              let rec cmp i =
                if i >= cmp_end then 0
                else
                  let c = Char.compare prefix.[i - path_len] bkey.[i] in
                  if c <> 0 then c else cmp (i + 1)
              in
              cmp path_len
            end
          in
          if prefix_cmp < 0 then () (* prune: strictly below the seek key *)
          else
          let constrained = constrained && prefix_cmp = 0 in
          Array.iter
            (fun (c, child) ->
              let constrained_child =
                constrained && plen < String.length bkey
              in
              if constrained_child then begin
                let kc = Char.code bkey.[plen] in
                if c > kc then visit child ~path_len:(plen + 1) ~constrained:false
                else if c = kc then
                  visit child ~path_len:(plen + 1) ~constrained:true
                (* c < kc: whole subtree below the seek key; prune *)
              end
              else visit child ~path_len:(plen + 1) ~constrained:false)
            children
    in
      (try visit (Atomic.get t.root) ~path_len:0 ~constrained:true
       with Done -> ());
      !acc
    in
    (* the attempt validated every node it crossed; emit oldest-first,
       recovering each key from the stored bkey minus our terminator *)
    List.fold_left
      (fun m (bk, v) ->
        visit (K.of_binary (String.sub bk 0 (String.length bk - 1))) v;
        m + 1)
      0 (List.rev items)
    end

  (* --- introspection --- *)

  let cardinal t =
    let rec go node acc =
      match node with
      | Empty -> acc
      | Leaf _ -> acc + 1
      | N4 n -> Array.fold_left (fun a c -> go c a) acc n.children
      | N16 n -> Array.fold_left (fun a c -> go c a) acc n.children
      | N48 n -> Array.fold_left (fun a c -> go c a) acc n.children
      | N256 n -> Array.fold_left (fun a c -> go c a) acc n.children
    in
    go (Atomic.get t.root) 0

  let memory_words t = Obj.reachable_words (Obj.repr t)
end
