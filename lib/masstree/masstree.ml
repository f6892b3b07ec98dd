(** Masstree (Mao, Kohler, Morris — EuroSys 2012): a trie of B+Trees keyed
    by successive 8-byte key slices, the index of Silo and a comparator in
    §6 of the paper.

    Each trie layer is a B+Tree over the unsigned 64-bit value of one key
    slice; a slice entry ("border link") can simultaneously hold terminal
    key/value bindings (keys ending within this slice group, disambiguated
    by their full key) and a pointer to the next deeper layer (keys that
    continue). Keys with shared prefixes therefore share layers, giving the
    paper's observed trie-like behaviour on Email keys.

    Concurrency follows Masstree's optimistic scheme, realized here with
    the same version-lock protocol as {!Btree_olc}: per-node version words,
    validating readers, lock-only-what-you-modify writers, eager splits on
    descent. Border-link contents are updated with CaS (terminal lists and
    next-layer installation), so readers never lock.

    Simplifications relative to the original C++ (documented in DESIGN.md):
    no permutation arrays (sorted arrays + shifts instead), no prefetching
    hints, and range scans work on int-keyed instances via layer-0
    in-order traversal only (sufficient for the YCSB-E workload). *)


exception Restart

module Make (K : Bwtree.KEY) (V : Bwtree.VALUE) = struct
  type key = K.t
  type value = V.t

  let leaf_capacity = 16  (* Masstree uses 15-entry border nodes *)
  let inner_capacity = 16

  type slice = int64

  type lnode = {
    version : int Atomic.t;
    mutable count : int;
    keys : slice array;
    kind : kind;
  }

  and kind =
    | Border of border
    | Interior of interior

  and border = { links : link array; mutable next : lnode option }
  and interior = { children : lnode array }

  and link = {
    (* keys that end within this slice group: (full binary key, value);
       nearly always zero or one entry — more only for keys that are
       binary prefixes of each other within the slice *)
    terminals : (string * value Atomic.t) list Atomic.t;
    next_layer : layer option Atomic.t;
  }

  and layer = { root : lnode Atomic.t }

  type t = { top : layer; o : Bw_obs.sink }

  (* Table 3 probes: one inlined branch on the null sink *)
  let cnt o tid c =
    match o with Bw_obs.Null -> () | Bw_obs.To _ -> Bw_obs.incr o ~tid c

  let new_border () =
    {
      version = Atomic.make 0;
      count = 0;
      keys = Array.make leaf_capacity 0L;
      kind =
        Border
          { links = Array.make leaf_capacity (Obj.magic 0 : link); next = None };
    }

  let new_interior () =
    {
      version = Atomic.make 0;
      count = 0;
      keys = Array.make inner_capacity 0L;
      kind =
        Interior { children = Array.make (inner_capacity + 1) (Obj.magic 0 : lnode) };
    }

  let new_layer () = { root = Atomic.make (new_border ()) }
  let create ?(obs = Bw_obs.Null) () = { top = new_layer (); o = obs }

  let new_link () =
    { terminals = Atomic.make []; next_layer = Atomic.make None }

  (* --- version-lock primitives (same protocol as Btree_olc) --- *)

  let read_lock n =
    let v = Atomic.get n.version in
    if v land 1 = 1 then raise Restart;
    v

  let validate n v = if Atomic.get n.version <> v then raise Restart

  let upgrade n v =
    if not (Atomic.compare_and_set n.version v (v + 1)) then raise Restart

  let write_unlock n = Atomic.set n.version (Atomic.get n.version + 1)

  (* --- in-node search --- *)

  let lower_bound o ~tid n (k : slice) =
    let count = min (max n.count 0) (Array.length n.keys) in
    let lo = ref 0 and hi = ref count in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      cnt o tid Bw_obs.C_key_compares;
      if Int64.unsigned_compare n.keys.(mid) k < 0 then lo := mid + 1
      else hi := mid
    done;
    !lo

  let child_for o ~tid n k =
    match n.kind with
    | Interior i ->
        let pos = lower_bound o ~tid n k in
        let pos =
          if pos < n.count && Int64.unsigned_compare n.keys.(pos) k = 0 then
            pos + 1
          else pos
        in
        i.children.(pos)
    | Border _ -> assert false

  let is_full n =
    match n.kind with
    | Border _ -> n.count >= leaf_capacity
    | Interior _ -> n.count >= inner_capacity - 1

  let split_node child =
    let mid = child.count / 2 in
    match child.kind with
    | Border b ->
        let right = new_border () in
        let rb = match right.kind with Border rb -> rb | _ -> assert false in
        let moved = child.count - mid in
        Array.blit child.keys mid right.keys 0 moved;
        Array.blit b.links mid rb.links 0 moved;
        right.count <- moved;
        rb.next <- b.next;
        b.next <- Some right;
        child.count <- mid;
        (right.keys.(0), right)
    | Interior i ->
        let right = new_interior () in
        let ri = match right.kind with Interior ri -> ri | _ -> assert false in
        let sep = child.keys.(mid) in
        let moved = child.count - mid - 1 in
        Array.blit child.keys (mid + 1) right.keys 0 moved;
        Array.blit i.children (mid + 1) ri.children 0 (moved + 1);
        right.count <- moved;
        child.count <- mid;
        (sep, right)

  let insert_into_interior parent sep right =
    match parent.kind with
    | Interior i ->
        let pos = ref parent.count in
        while
          !pos > 0 && Int64.unsigned_compare parent.keys.(!pos - 1) sep > 0
        do
          parent.keys.(!pos) <- parent.keys.(!pos - 1);
          i.children.(!pos + 1) <- i.children.(!pos);
          decr pos
        done;
        parent.keys.(!pos) <- sep;
        i.children.(!pos + 1) <- right;
        parent.count <- parent.count + 1
    | Border _ -> assert false

  let rec retry o ~tid f =
    try f () with
    | Restart | Invalid_argument _ ->
        cnt o tid Bw_obs.C_restarts;
        Domain.cpu_relax ();
        retry o ~tid f

  (* Descend one layer's B+Tree to the border node owning [slice]; eager
     splits when [grow] is set. Calls [at_border border version]. *)
  let descend_layer o (layer : layer) ~tid slice ~grow at_border =
    let root = Atomic.get layer.root in
    let v = read_lock root in
    if Atomic.get layer.root != root then raise Restart;
    if grow && is_full root then begin
      upgrade root v;
      if Atomic.get layer.root != root then begin
        write_unlock root;
        raise Restart
      end;
      let sep, right = split_node root in
      let new_root = new_interior () in
      (match new_root.kind with
      | Interior i ->
          new_root.keys.(0) <- sep;
          i.children.(0) <- root;
          i.children.(1) <- right;
          new_root.count <- 1
      | Border _ -> assert false);
      let ok = Atomic.compare_and_set layer.root root new_root in
      assert ok;
      write_unlock root;
      raise Restart
    end;
    let rec go node v =
      cnt o tid Bw_obs.C_node_visits;
      match node.kind with
      | Border _ -> at_border node v
      | Interior _ ->
          cnt o tid Bw_obs.C_ptr_derefs;
          let child = child_for o ~tid node slice in
          validate node v;
          let cv = read_lock child in
          if grow && is_full child then begin
            upgrade node v;
            (try upgrade child cv
             with Restart ->
               write_unlock node;
               raise Restart);
            let sep, right = split_node child in
            insert_into_interior node sep right;
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

  (* find the border link for [slice], or None; read-only *)
  let find_link o (layer : layer) ~tid slice =
    retry o ~tid @@ fun () ->
    descend_layer o layer ~tid slice ~grow:false @@ fun border v ->
    let b = match border.kind with Border b -> b | _ -> assert false in
    let pos = lower_bound o ~tid border slice in
    let res =
      if pos < border.count && Int64.unsigned_compare border.keys.(pos) slice = 0
      then Some b.links.(pos)
      else None
    in
    validate border v;
    res

  (* find the border link for [slice], inserting a fresh one if absent *)
  let find_or_add_link o (layer : layer) ~tid slice =
    retry o ~tid @@ fun () ->
    descend_layer o layer ~tid slice ~grow:true @@ fun border v ->
    let b = match border.kind with Border b -> b | _ -> assert false in
    upgrade border v;
    let pos = lower_bound o ~tid border slice in
    if pos < border.count && Int64.unsigned_compare border.keys.(pos) slice = 0
    then begin
      let link = b.links.(pos) in
      write_unlock border;
      link
    end
    else begin
      let link = new_link () in
      cnt o tid Bw_obs.C_allocations;
      Array.blit border.keys pos border.keys (pos + 1) (border.count - pos);
      Array.blit b.links pos b.links (pos + 1) (border.count - pos);
      border.keys.(pos) <- slice;
      b.links.(pos) <- link;
      border.count <- border.count + 1;
      write_unlock border;
      link
    end

  (* --- layered operations --- *)

  let rec add_terminal o ~tid link bkey value =
    let old = Atomic.get link.terminals in
    if List.exists (fun (k, _) -> String.equal k bkey) old then false
    else begin
      cnt o tid Bw_obs.C_cas_attempts;
      if
        Atomic.compare_and_set link.terminals old
          ((bkey, Atomic.make value) :: old)
      then true
      else begin
        cnt o tid Bw_obs.C_cas_failures;
        add_terminal o ~tid link bkey value
      end
    end

  let rec get_or_make_next_layer link =
    match Atomic.get link.next_layer with
    | Some l -> l
    | None ->
        let fresh = new_layer () in
        if Atomic.compare_and_set link.next_layer None (Some fresh) then fresh
        else get_or_make_next_layer link

  let insert t ~tid k value =
    let bkey = K.to_binary k in
    let slices = Bw_util.Key_codec.slice_count bkey in
    let rec go layer d =
      let slice = Bw_util.Key_codec.slice64 bkey d in
      let link = find_or_add_link t.o layer ~tid slice in
      if d = slices - 1 then add_terminal t.o ~tid link bkey value
      else begin
        cnt t.o tid Bw_obs.C_ptr_derefs;
        go (get_or_make_next_layer link) (d + 1)
      end
    in
    go t.top 0

  let lookup t ~tid k =
    let bkey = K.to_binary k in
    let slices = Bw_util.Key_codec.slice_count bkey in
    let rec go layer d =
      let slice = Bw_util.Key_codec.slice64 bkey d in
      match find_link t.o layer ~tid slice with
      | None -> None
      | Some link ->
          if d = slices - 1 then
            List.find_opt
              (fun (kb, _) -> String.equal kb bkey)
              (Atomic.get link.terminals)
            |> Option.map (fun (_, v) -> Atomic.get v)
          else begin
            cnt t.o tid Bw_obs.C_ptr_derefs;
            match Atomic.get link.next_layer with
            | None -> None
            | Some next -> go next (d + 1)
          end
    in
    go t.top 0

  let update t ~tid k value =
    let bkey = K.to_binary k in
    let slices = Bw_util.Key_codec.slice_count bkey in
    let rec go layer d =
      let slice = Bw_util.Key_codec.slice64 bkey d in
      match find_link t.o layer ~tid slice with
      | None -> false
      | Some link ->
          if d = slices - 1 then
            match
              List.find_opt
                (fun (kb, _) -> String.equal kb bkey)
                (Atomic.get link.terminals)
            with
            | Some (_, cell) ->
                Atomic.set cell value;
                true
            | None -> false
          else (
            match Atomic.get link.next_layer with
            | None -> false
            | Some next -> go next (d + 1))
    in
    go t.top 0

  (* Deletion detaches the terminal binding; border entries and drained
     layers are left in place (Masstree also defers removal — its border
     entries are reclaimed by RCU epochs, not eagerly). *)
  let delete t ~tid k =
    let bkey = K.to_binary k in
    let slices = Bw_util.Key_codec.slice_count bkey in
    let rec go layer d =
      let slice = Bw_util.Key_codec.slice64 bkey d in
      match find_link t.o layer ~tid slice with
      | None -> false
      | Some link ->
          if d = slices - 1 then begin
            let rec drop () =
              let old = Atomic.get link.terminals in
              if not (List.exists (fun (kb, _) -> String.equal kb bkey) old)
              then false
              else begin
                let rest =
                  List.filter (fun (kb, _) -> not (String.equal kb bkey)) old
                in
                if Atomic.compare_and_set link.terminals old rest then true
                else drop ()
              end
            in
            drop ()
          end
          else (
            match Atomic.get link.next_layer with
            | None -> false
            | Some next -> go next (d + 1))
    in
    go t.top 0

  (* Range scan: seek within each layer using the corresponding slice of
     the seek key, then stream border nodes left-to-right, descending into
     sub-layers depth-first. Layers whose path already exceeds the seek
     key are unconstrained and streamed wholesale. *)
  let scan t ~tid k ~n visit =
    if n <= 0 then 0
    else begin
    let bkey = K.to_binary k in
    let items =
      retry t.o ~tid @@ fun () ->
      let acc = ref [] in
      let visited = ref 0 in
      let exception Done in
      let slice_of d = Bw_util.Key_codec.slice64 bkey d in
      let rec visit_link link ~depth ~constrained =
        (match Atomic.get link.terminals with
        | [] -> ()
        | terms ->
            List.iter
              (fun (kb, v) ->
                if (not constrained) || String.compare kb bkey >= 0 then begin
                  acc := (kb, Atomic.get v) :: !acc;
                  incr visited;
                  if !visited >= n then raise Done
                end)
              (List.sort (fun (a, _) (b, _) -> String.compare a b) terms));
      match Atomic.get link.next_layer with
      | None -> ()
      | Some sub -> visit_layer sub ~depth:(depth + 1) ~constrained
    and visit_layer layer ~depth ~constrained =
      (* when still on the seek key's path, start at its slice for this
         layer and prune everything below it; otherwise stream all *)
      let from_slice = if constrained then slice_of depth else 0L in
      let border0 =
        descend_layer t.o layer ~tid from_slice ~grow:false (fun b v ->
            ignore v;
            b)
      in
      let rec walk border =
        let b = match border.kind with Border b -> b | _ -> assert false in
        let v = read_lock border in
        let count = border.count in
        let entries =
          Array.init count (fun i -> (border.keys.(i), b.links.(i)))
        in
        let next = b.next in
        validate border v;
        Array.iter
          (fun (s, link) ->
            if not constrained then visit_link link ~depth ~constrained:false
            else
              let c = Int64.unsigned_compare s from_slice in
              if c > 0 then visit_link link ~depth ~constrained:false
              else if c = 0 then visit_link link ~depth ~constrained:true
              else () (* strictly below the seek slice: prune *))
          entries;
        match next with Some nx -> walk nx | None -> ()
      in
      walk border0
      in
      (try visit_layer t.top ~depth:0 ~constrained:true with Done -> ());
      !acc
    in
    (* terminals store the exact binary key, so recovery is direct *)
    List.fold_left
      (fun m (kb, v) ->
        visit (K.of_binary kb) v;
        m + 1)
      0 (List.rev items)
    end

  (* --- introspection --- *)

  let cardinal t =
    let rec layer_count (layer : layer) =
      let rec leftmost node =
        match node.kind with
        | Border _ -> node
        | Interior i -> leftmost i.children.(0)
      in
      let rec walk node acc =
        let b = match node.kind with Border b -> b | _ -> assert false in
        let acc = ref acc in
        for i = 0 to node.count - 1 do
          let link = b.links.(i) in
          acc := !acc + List.length (Atomic.get link.terminals);
          match Atomic.get link.next_layer with
          | Some sub -> acc := !acc + layer_count sub
          | None -> ()
        done;
        match b.next with Some nx -> walk nx !acc | None -> !acc
      in
      walk (leftmost (Atomic.get layer.root)) 0
    in
    layer_count t.top

  let memory_words t = Obj.reachable_words (Obj.repr t)
end
