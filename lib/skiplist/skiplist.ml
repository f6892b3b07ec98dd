(** Lock-free skip list in the spirit of the "No Hot Spot" non-blocking
    skip list (Crain, Gramoli, Raynal — ICDCS 2013), the lock-free
    comparator of §6.

    The bottom level is a Harris-style lock-free linked list: insertion is
    one CaS; deletion first marks the node's successor pointer (logical
    delete), then traversals physically unlink marked nodes.

    Tower policy (§6.1 explains the paper's observations by this design):

    - {b Background} (the paper's configuration): worker threads insert at
      the bottom level only. A maintenance thread periodically scans the
      bottom level and rebuilds the upper index levels, which it alone
      writes. Under insert bursts the index levels lag and traversals
      degrade toward a linked-list walk — exactly the behaviour the paper
      reports.
    - {b Inline}: the inserting thread raises its own tower with CaS at
      each level (a classic Pugh/Fraser-style lock-free skip list), as an
      ablation showing the cost/benefit of the background design. *)

type tower_policy = Background | Inline

module Make (K : Bwtree.KEY) (V : Bwtree.VALUE) = struct
  type key = K.t
  type value = V.t

  let max_level = 20

  (* A successor pointer is either clean or marked; marking freezes the
     node (logical deletion) because every mutation CaSes against a clean
     value. *)
  type succ = Tail | Next of node | Marked of node | Marked_tail

  and node = {
    key : key;
    value : value Atomic.t;  (* in-place updates *)
    nexts : succ Atomic.t array;  (* tower; slot 0 is the data level *)
    level : int;  (* tower height in use, >= 1 *)
  }

  type t = {
    head : node;  (* sentinel; key is never examined *)
    policy : tower_policy;
    rng_seed : int Atomic.t;
    mutable maintenance : unit Domain.t option;
    stop : bool Atomic.t;
    interval_s : float;
    o : Bw_obs.sink;
  }

  (* Table 3 probes: one inlined branch on the null sink *)
  let cnt t tid c =
    match t.o with Bw_obs.Null -> () | Bw_obs.To _ as o -> Bw_obs.incr o ~tid c

  let make_node k v level =
    {
      key = k;
      value = Atomic.make v;
      nexts = Array.init level (fun _ -> Atomic.make Tail);
      level;
    }

  let create ?(policy = Background) ?(interval_s = 0.01) ?(obs = Bw_obs.Null)
      () =
    {
      head = make_node K.dummy (Obj.magic 0 : value) max_level;
      policy;
      rng_seed = Atomic.make 0x9E3779B9;
      maintenance = None;
      stop = Atomic.make false;
      interval_s;
      o = obs;
    }

  let is_marked = function Marked _ | Marked_tail -> true | Tail | Next _ -> false
  let mark_of = function
    | Next n -> Marked n
    | Tail -> Marked_tail
    | s -> s

  let unmarked_next = function
    | Next n | Marked n -> Some n
    | Tail | Marked_tail -> None

  (* --- bottom-level search with physical unlinking of marked nodes --- *)

  (* Result of a level search: the predecessor node, the exact successor
     value physically read from [pred.nexts.(lvl)] (needed as the CaS
     expected value — compare_and_set uses physical equality), and the
     successor node if any. *)
  type found = { pred : node; succ_val : succ; succ_node : node option }

  (* Find the position for [k] at level [lvl] such that
     pred.key < k <= succ.key, snipping out marked nodes on the way
     (Harris). Raises [Exit] internally to restart when an unlink CaS
     fails. *)
  let rec find_level ~tid t k lvl =
    let rec advance pred =
      cnt t tid Bw_obs.C_ptr_derefs;
      match Atomic.get pred.nexts.(lvl) with
      | Tail -> { pred; succ_val = Tail; succ_node = None }
      | Marked _ | Marked_tail ->
          (* predecessor was deleted under us; restart the search *)
          raise Exit
      | Next curr as pv -> (
          (* skip over logically-deleted nodes, unlinking them *)
          match Atomic.get curr.nexts.(lvl) with
          | Marked m ->
              if not (Atomic.compare_and_set pred.nexts.(lvl) pv (Next m))
              then raise Exit
              else advance pred
          | Marked_tail ->
              if not (Atomic.compare_and_set pred.nexts.(lvl) pv Tail) then
                raise Exit
              else advance pred
          | Tail | Next _ ->
              cnt t tid Bw_obs.C_key_compares;
              if K.compare curr.key k < 0 then advance curr
              else { pred; succ_val = pv; succ_node = Some curr })
    in
    try advance (start_pred ~tid t k lvl) with
    | Exit ->
        (* the hinted predecessor was deleted under us; retry from the
           head, which is never marked, guaranteeing progress *)
        find_level_from_head ~tid t k lvl

  and find_level_from_head ~tid t k lvl =
    let rec advance pred =
      cnt t tid Bw_obs.C_ptr_derefs;
      match Atomic.get pred.nexts.(lvl) with
      | Tail -> { pred; succ_val = Tail; succ_node = None }
      | Marked _ | Marked_tail -> raise Exit
      | Next curr as pv -> (
          match Atomic.get curr.nexts.(lvl) with
          | Marked m ->
              if not (Atomic.compare_and_set pred.nexts.(lvl) pv (Next m))
              then raise Exit
              else advance pred
          | Marked_tail ->
              if not (Atomic.compare_and_set pred.nexts.(lvl) pv Tail) then
                raise Exit
              else advance pred
          | Tail | Next _ ->
              cnt t tid Bw_obs.C_key_compares;
              if K.compare curr.key k < 0 then advance curr
              else { pred; succ_val = pv; succ_node = Some curr })
    in
    try advance t.head with Exit -> find_level_from_head ~tid t k lvl

  (* Use the index levels to find a good starting predecessor for [lvl]:
     descend from the top, staying strictly below [k]. Index levels are
     only hints — they may lag behind the data level. *)
  and start_pred ~tid t k lvl =
    let pred = ref t.head in
    for l = max_level - 1 downto lvl + 1 do
      let continue_ = ref true in
      while !continue_ do
        cnt t tid Bw_obs.C_ptr_derefs;
        match Atomic.get !pred.nexts.(l) with
        | (Next n | Marked n)
          when K.compare n.key k < 0
               && not (is_marked (Atomic.get n.nexts.(l))) ->
            (* step only onto nodes still clean at this level; towers are
               marked top-down, so clean-at-l implies clean at every
               level below l at this instant *)
            cnt t tid Bw_obs.C_key_compares;
            pred := n
        | _ -> continue_ := false
      done
    done;
    !pred

  (* --- operations --- *)

  let random_level t =
    (* xorshift over a shared seed; contention here is irrelevant because
       inline towers are the ablation, not the measured configuration *)
    let rec mix x =
      let x = x lxor (x lsl 13) in
      let x = x lxor (x lsr 7) in
      x lxor (x lsl 17)
    and draw () =
      let s = Atomic.get t.rng_seed in
      let s' = mix (if s = 0 then 1 else s) land max_int in
      if Atomic.compare_and_set t.rng_seed s s' then s' else draw ()
    in
    let r = draw () in
    let rec height l r =
      if l >= max_level then max_level
      else if r land 1 = 1 then height (l + 1) (r lsr 1)
      else l
    in
    height 1 r

  (* raise node's tower: link it at levels 1..level-1 *)
  let rec link_level ~tid t node lvl =
    if lvl < node.level then begin
      let f = find_level ~tid t node.key lvl in
      (* the node may have been deleted while we were linking *)
      if is_marked (Atomic.get node.nexts.(0)) then ()
      else
        match f.succ_node with
        | Some s when s == node ->
            (* already linked at this level *)
            link_level ~tid t node (lvl + 1)
        | _ ->
            Atomic.set node.nexts.(lvl) f.succ_val;
            if
              Atomic.compare_and_set f.pred.nexts.(lvl) f.succ_val
                (Next node)
            then link_level ~tid t node (lvl + 1)
            else link_level ~tid t node lvl (* retry this level *)
    end

  let insert t ~tid k v =
    let rec go () =
      let f = find_level ~tid t k 0 in
      match f.succ_node with
      | Some s when K.compare s.key k = 0 ->
          if is_marked (Atomic.get s.nexts.(0)) then go ()
            (* a deleted node with our key is still linked: retry until a
               traversal unlinks it *)
          else false
      | _ ->
          (* both policies draw a tower height at creation (the arrays are
             fixed); Background defers *linking* the upper levels to the
             maintenance thread, which is what makes the index lag under
             insert bursts *)
          let level = random_level t in
          let node = make_node k v level in
          cnt t tid Bw_obs.C_allocations;
          Atomic.set node.nexts.(0) f.succ_val;
          cnt t tid Bw_obs.C_cas_attempts;
          if Atomic.compare_and_set f.pred.nexts.(0) f.succ_val (Next node)
          then begin
            if t.policy = Inline && level > 1 then link_level ~tid t node 1;
            true
          end
          else begin
            cnt t tid Bw_obs.C_cas_failures;
            cnt t tid Bw_obs.C_restarts;
            go ()
          end
    in
    go ()

  let lookup t ~tid k =
    let f = find_level ~tid t k 0 in
    match f.succ_node with
    | Some s when K.compare s.key k = 0 && not (is_marked (Atomic.get s.nexts.(0)))
      ->
        Some (Atomic.get s.value)
    | _ -> None

  let update t ~tid k v =
    let f = find_level ~tid t k 0 in
    match f.succ_node with
    | Some s when K.compare s.key k = 0 && not (is_marked (Atomic.get s.nexts.(0)))
      ->
        Atomic.set s.value v;
        true
    | _ -> false

  let delete t ~tid k =
    (* mark one tower pointer; retried until it is marked (by anyone) *)
    let rec mark_slot cell =
      match Atomic.get cell with
      | Marked _ | Marked_tail -> ()
      | (Tail | Next _) as clean ->
          cnt t tid Bw_obs.C_cas_attempts;
          if not (Atomic.compare_and_set cell clean (mark_of clean)) then begin
            cnt t tid Bw_obs.C_cas_failures;
            mark_slot cell
          end
    in
    let rec go () =
      let f = find_level ~tid t k 0 in
      match f.succ_node with
      | Some s when K.compare s.key k = 0 -> (
          (* Fraser-style: freeze the index levels top-down first so
             traversals can physically unlink the node at every level,
             then decide the logical deletion at the data level *)
          for lvl = s.level - 1 downto 1 do
            mark_slot s.nexts.(lvl)
          done;
          match Atomic.get s.nexts.(0) with
          | Marked _ | Marked_tail -> false (* someone else deleted it *)
          | (Tail | Next _) as clean ->
              cnt t tid Bw_obs.C_cas_attempts;
              if Atomic.compare_and_set s.nexts.(0) clean (mark_of clean)
              then begin
                (* physical unlink at every level, best effort *)
                (try
                   for lvl = s.level - 1 downto 0 do
                     ignore (find_level ~tid t k lvl)
                   done
                 with _ -> ());
                true
              end
              else begin
                cnt t tid Bw_obs.C_cas_failures;
                go ()
              end)
      | _ -> false
    in
    go ()

  let scan t ~tid k ~n visit =
    let f = find_level ~tid t k 0 in
    let succ = f.succ_node in
    let visited = ref 0 in
    (* lock-free list walks never restart, so each live node can be handed
       to the visitor as it is passed *)
    let rec walk = function
      | None -> ()
      | Some node ->
          if !visited < n then begin
            (match Atomic.get node.nexts.(0) with
            | Marked _ | Marked_tail ->
                (* skip logically-deleted nodes *)
                walk (unmarked_next (Atomic.get node.nexts.(0)))
            | (Tail | Next _) as s ->
                visit node.key (Atomic.get node.value);
                incr visited;
                cnt t tid Bw_obs.C_ptr_derefs;
                walk (unmarked_next s))
          end
    in
    walk succ;
    !visited

  (* --- background tower maintenance --- *)

  (* Rebuild the index levels from the current bottom level: each live
     node is linked at every level its tower covers. Only this thread
     writes levels >= 1, so no CaS is needed (readers treat index levels
     as hints and re-verify at the data level). *)
  let rebuild_towers t =
    let preds = Array.make max_level t.head in
    let rec walk node_opt =
      match node_opt with
      | None -> ()
      | Some node ->
          let s = Atomic.get node.nexts.(0) in
          if not (is_marked s) then
            for l = 1 to node.level - 1 do
              Atomic.set preds.(l).nexts.(l) (Next node);
              preds.(l) <- node
            done;
          walk (unmarked_next s)
    in
    walk (unmarked_next (Atomic.get t.head.nexts.(0)));
    (* terminate the rebuilt levels *)
    for l = 1 to max_level - 1 do
      Atomic.set preds.(l).nexts.(l) Tail
    done

  let maintenance_pass t = rebuild_towers t

  let start_aux t =
    match (t.policy, t.maintenance) with
    | Inline, _ -> () (* inline towers need no maintenance thread *)
    | Background, Some _ -> ()
    | Background, None ->
        Atomic.set t.stop false;
        t.maintenance <-
          Some
            (Domain.spawn (fun () ->
                 while not (Atomic.get t.stop) do
                   Unix.sleepf t.interval_s;
                   maintenance_pass t
                 done))

  let stop_aux t =
    match t.maintenance with
    | None -> ()
    | Some d ->
        Atomic.set t.stop true;
        Domain.join d;
        t.maintenance <- None

  let cardinal t =
    let rec go acc = function
      | None -> acc
      | Some node ->
          let s = Atomic.get node.nexts.(0) in
          let acc = if is_marked s then acc else acc + 1 in
          go acc (unmarked_next s)
    in
    go 0 (unmarked_next (Atomic.get t.head.nexts.(0)))

  let memory_words t = Obj.reachable_words (Obj.repr t)

  let verify_invariants t =
    let rec go prev = function
      | None -> ()
      | Some node ->
          let s = Atomic.get node.nexts.(0) in
          (match prev with
          | Some pk ->
              if K.compare pk node.key >= 0 then
                failwith "skiplist: keys out of order"
          | None -> ());
          let prev = if is_marked s then prev else Some node.key in
          go prev (unmarked_next s)
    in
    go None (unmarked_next (Atomic.get t.head.nexts.(0)))
end
