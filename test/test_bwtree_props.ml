(* Property-based tests for the Bw-Tree: qcheck generators drive random
   operation sequences and structural configurations; properties compare
   against reference models and check internal invariants. *)

module IK = Index_iface.Int_key
module IV = Index_iface.Int_value
module T = Bwtree.Make (IK) (IV)
module IntMap = Map.Make (Int)

let tiny =
  Bwtree.Config.make ~leaf_max:8 ~inner_max:6 ~leaf_chain_max:4
    ~inner_chain_max:2 ~leaf_min:2 ~inner_min:2 ()

(* an op sequence: (op selector, key, value) triples over a small key
   space so that collisions, re-inserts and merges are frequent *)
let ops_gen =
  QCheck.(
    list_of_size (Gen.int_range 0 400)
      (triple (int_bound 3) (int_bound 120) (int_bound 1000)))

let apply_tree t ops =
  List.iter
    (fun (op, k, v) ->
      match op with
      | 0 -> ignore (T.insert t k v)
      | 1 -> ignore (T.delete t k 0)
      | 2 -> ignore (T.update t k v)
      | _ -> ignore (T.lookup t k))
    ops

let apply_model ops =
  List.fold_left
    (fun m (op, k, v) ->
      match op with
      | 0 -> if IntMap.mem k m then m else IntMap.add k v m
      | 1 -> IntMap.remove k m
      | 2 -> if IntMap.mem k m then IntMap.add k v m else m
      | _ -> m)
    IntMap.empty ops

let prop_model_agreement =
  QCheck.Test.make ~name:"tree == map model after random ops" ~count:150
    ops_gen (fun ops ->
      let t = T.create ~config:tiny () in
      apply_tree t ops;
      T.scan_all t () = IntMap.bindings (apply_model ops))

let prop_invariants_hold =
  QCheck.Test.make ~name:"structural invariants after random ops" ~count:150
    ops_gen (fun ops ->
      let t = T.create ~config:tiny () in
      apply_tree t ops;
      T.verify_invariants t;
      true)

let prop_forward_iteration_sorted =
  QCheck.Test.make ~name:"forward iteration == sorted model" ~count:100
    ops_gen (fun ops ->
      let t = T.create ~config:tiny () in
      apply_tree t ops;
      let expected = IntMap.bindings (apply_model ops) in
      let it = T.Iterator.seek_first t () in
      let out = ref [] in
      let rec go () =
        match T.Iterator.current it with
        | Some kv ->
            out := kv :: !out;
            T.Iterator.next it;
            go ()
        | None -> ()
      in
      go ();
      List.rev !out = expected)

let prop_backward_iteration_sorted =
  QCheck.Test.make ~name:"backward iteration == reversed model" ~count:100
    ops_gen (fun ops ->
      let t = T.create ~config:tiny () in
      apply_tree t ops;
      let expected = List.rev (IntMap.bindings (apply_model ops)) in
      (* start past the end and walk back *)
      let it = T.Iterator.seek t max_int in
      T.Iterator.prev it;
      let out = ref [] in
      let rec go () =
        match T.Iterator.current it with
        | Some kv ->
            out := kv :: !out;
            T.Iterator.prev it;
            go ()
        | None -> ()
      in
      go ();
      List.rev !out = expected)

let prop_scan_matches_model_window =
  QCheck.Test.make ~name:"bounded scan == model window" ~count:100
    QCheck.(pair ops_gen (pair (int_bound 130) (int_bound 20)))
    (fun (ops, (start, len)) ->
      let t = T.create ~config:tiny () in
      apply_tree t ops;
      let model = apply_model ops in
      let expected =
        IntMap.bindings model
        |> List.filter (fun (k, _) -> k >= start)
        |> List.filteri (fun i _ -> i < len)
      in
      T.scan t ~n:len start = expected)

let prop_freeze_agrees =
  QCheck.Test.make ~name:"frozen tree == live tree" ~count:60 ops_gen
    (fun ops ->
      let t = T.create ~config:tiny () in
      apply_tree t ops;
      let fz = T.freeze t in
      let ok = ref true in
      for k = 0 to 130 do
        if T.frozen_lookup fz k <> T.lookup t k then ok := false
      done;
      !ok)

let prop_config_independence =
  (* the observable contents never depend on the physical configuration *)
  QCheck.Test.make ~name:"contents independent of configuration" ~count:60
    ops_gen (fun ops ->
      let reference =
        let t = T.create ~config:tiny () in
        apply_tree t ops;
        T.scan_all t ()
      in
      List.for_all
        (fun config ->
          let t = T.create ~config () in
          apply_tree t ops;
          T.scan_all t () = reference)
        [
          Bwtree.default_config;
          Bwtree.microsoft_config;
          { tiny with preallocate = false };
          { tiny with fast_consolidation = false };
          { tiny with search_shortcuts = false };
          { tiny with leaf_chain_max = 1; inner_chain_max = 1 };
          { tiny with leaf_max = 4; inner_max = 4; leaf_min = 1; inner_min = 1 };
        ])

(* execute_batch over arbitrary chunk sizes must be indistinguishable
   from applying the same ops one by one: same per-op results, same
   final contents. Keys are drawn from a small space so one batch
   regularly carries duplicate keys (the per-key submission-order
   guarantee) and ops of every kind. *)
let batch_op_of op v =
  match op with
  | 0 -> T.B_insert v
  | 1 -> T.B_delete v
  | 2 -> T.B_update v
  | 3 -> T.B_upsert v
  | _ -> T.B_get

let apply_point t (op, k, v) : T.batch_result =
  match op with
  | 0 -> T.R_applied (T.insert t k v)
  | 1 -> T.R_applied (T.delete t k v)
  | 2 -> T.R_applied (T.update t k v)
  | 3 -> T.R_applied (if T.update t k v then true else T.insert t k v)
  | _ -> T.R_values (T.lookup t k)

(* duplicate-value order inside a lookup is physical (delta order until
   a consolidation sorts the page), not part of the contract — compare
   value multisets *)
let norm_res = function
  | T.R_values vs -> T.R_values (List.sort compare vs)
  | r -> r

let rec chunks n = function
  | [] -> []
  | l ->
      let rec take i acc = function
        | x :: tl when i < n -> take (i + 1) (x :: acc) tl
        | rest -> (List.rev acc, rest)
      in
      let c, rest = take 0 [] l in
      c :: chunks n rest

let batch_vs_sequential ~name ~count ~len ~keys ~bsize =
  QCheck.Test.make ~name ~count
    QCheck.(
      pair
        (list_of_size len
           (triple (int_bound 4) (int_bound keys) (int_bound 1000)))
        bsize)
    (fun (ops, bsize) ->
      let ts = T.create ~config:tiny () in
      let tb = T.create ~config:tiny () in
      let ok = ref true in
      List.iter
        (fun chunk ->
          let arr =
            Array.of_list
              (List.map (fun (op, k, v) -> (k, batch_op_of op v)) chunk)
          in
          let rb = T.execute_batch tb arr in
          List.iteri
            (fun i trip ->
              if norm_res (apply_point ts trip) <> norm_res rb.(i) then
                ok := false)
            chunk)
        (chunks bsize ops);
      T.verify_invariants tb;
      !ok && T.scan_all tb () = T.scan_all ts ())

let prop_batch_equals_sequential =
  batch_vs_sequential ~name:"execute_batch == sequential point ops" ~count:100
    ~len:(QCheck.Gen.int_range 0 400) ~keys:25 ~bsize:(QCheck.int_range 1 17)

(* batches long enough for the permutation sort's quicksort path, over a
   key space that still repeats keys inside a batch *)
let prop_large_batch_equals_sequential =
  batch_vs_sequential ~name:"execute_batch == sequential (large batches)"
    ~count:60 ~len:(QCheck.Gen.int_range 0 900) ~keys:150
    ~bsize:(QCheck.int_range 17 300)

(* Non-unique update/upsert replace "the first visible duplicate", which
   is physical chain order — not sequentially modelable (the stress
   harness folds update weight into inserts for the same reason). The
   non-unique equivalence property therefore sticks to the exact-pair
   ops: insert, delete, get. *)
let prop_batch_equals_sequential_non_unique =
  QCheck.Test.make ~name:"execute_batch == sequential (non-unique keys)"
    ~count:60
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 300)
           (triple (int_bound 2) (int_bound 20) (int_bound 6)))
        (int_range 1 13))
    (fun (ops, bsize) ->
      let ops = List.map (fun (op, k, v) -> ((if op = 2 then 4 else op), k, v)) ops in
      let config = { tiny with unique_keys = false } in
      let ts = T.create ~config () in
      let tb = T.create ~config () in
      let ok = ref true in
      List.iter
        (fun chunk ->
          let arr =
            Array.of_list
              (List.map (fun (op, k, v) -> (k, batch_op_of op v)) chunk)
          in
          let rb = T.execute_batch tb arr in
          List.iteri
            (fun i trip ->
              if norm_res (apply_point ts trip) <> norm_res rb.(i) then
                ok := false)
            chunk)
        (chunks bsize ops);
      T.verify_invariants tb;
      !ok
      && List.sort compare (T.scan_all tb ())
         = List.sort compare (T.scan_all ts ()))

(* Routing over the unboxed inner separators: grow a tree by random
   inserts and deletes (so inner nodes split, merge and carry chains of
   separator deltas), then for random probe keys the descent's leaf must
   be the leaf routed through [gather_inner]'s consolidated view. The
   invariant check also asserts every inner base's key array is strictly
   ascending inside its (lo, hi). Int and string keys. *)
module SK = Index_iface.String_key
module ST = Bwtree.Make (SK) (IV)

let routing_ops_gen =
  QCheck.(
    pair
      (list_of_size (Gen.int_range 0 600) (pair bool (int_bound 400)))
      (list_of_size (Gen.int_range 1 60) (int_range (-10) 410)))

let prop_routing_int =
  QCheck.Test.make ~name:"descent leaf == consolidated-view leaf (int keys)"
    ~count:100 routing_ops_gen (fun (ops, probes) ->
      let t = T.create ~config:tiny () in
      List.iter
        (fun (ins, k) ->
          if ins then ignore (T.insert t k k) else ignore (T.delete t k k))
        ops;
      T.verify_invariants t;
      List.for_all (fun k -> T.routing_check t ~tid:0 k) probes)

let skey k = Printf.sprintf "user%05d@example.org" k

let prop_routing_string =
  QCheck.Test.make ~name:"descent leaf == consolidated-view leaf (string keys)"
    ~count:100 routing_ops_gen (fun (ops, probes) ->
      let t = ST.create ~config:tiny () in
      List.iter
        (fun (ins, k) ->
          if ins then ignore (ST.insert t (skey k) k)
          else ignore (ST.delete t (skey k) k))
        ops;
      ST.verify_invariants t;
      (* probes between and around the stored keys too *)
      List.for_all
        (fun k ->
          ST.routing_check t ~tid:0 (skey k)
          && ST.routing_check t ~tid:0 (skey k ^ "~"))
        probes
      && ST.routing_check t ~tid:0 "")

let prop_delete_is_inverse =
  QCheck.Test.make ~name:"insert then delete restores absence" ~count:150
    QCheck.(list_of_size (Gen.int_range 0 100) (int_bound 300))
    (fun keys ->
      let t = T.create ~config:tiny () in
      let distinct = List.sort_uniq compare keys in
      List.iter (fun k -> ignore (T.insert t k k)) keys;
      List.iter (fun k -> ignore (T.delete t k k)) keys;
      T.verify_invariants t;
      List.for_all (fun k -> T.lookup t k = []) distinct
      && T.cardinal t = 0)

let prop_non_unique_multiset =
  (* non-unique mode behaves as a set of (key, value) pairs *)
  let module PS = Set.Make (struct
    type t = int * int

    let compare = compare
  end) in
  QCheck.Test.make ~name:"non-unique mode == pair-set model" ~count:100
    QCheck.(
      list_of_size (Gen.int_range 0 300)
        (triple bool (int_bound 25) (int_bound 6)))
    (fun ops ->
      let t =
        T.create ~config:{ tiny with unique_keys = false } ()
      in
      let model =
        List.fold_left
          (fun m (ins, k, v) ->
            if ins then begin
              ignore (T.insert t k v);
              PS.add (k, v) m
            end
            else begin
              ignore (T.delete t k v);
              PS.remove (k, v) m
            end)
          PS.empty ops
      in
      T.verify_invariants t;
      List.sort compare (T.scan_all t ()) = PS.elements model)

(* Delta slabs (§4.1) on trees small enough that every path runs: a
   2-4 delta chain threshold exhausts slabs and consolidates them away
   constantly, 4-8 item leaves split and merge, and the chains carry
   split and merge deltas with runs above them. Each drawn shape runs
   with pre-allocation on and off; every op's answer is checked against
   the oracle as it runs, and the invariant checker (which walks each
   slab run and accounts for its claimed slots) runs at the end. *)
let slab_shape_gen =
  QCheck.Gen.(triple (int_range 2 4) (int_range 4 8) (int_range 1 2))

let slab_config ~unique ~preallocate (chain, leaf_max, leaf_min) =
  Bwtree.Config.make ~leaf_max ~inner_max:4 ~leaf_chain_max:chain
    ~inner_chain_max:2 ~leaf_min ~inner_min:1 ~unique_keys:unique
    ~preallocate ()

let slab_ops_gen =
  QCheck.Gen.(
    list_size (int_range 0 400)
      (triple (int_bound 3) (int_bound 40) (int_bound 4)))

let slab_arb =
  QCheck.make
    ~print:(fun ((c, l, m), ops) ->
      Printf.sprintf "chain %d, leaf_max %d, leaf_min %d, %d ops" c l m
        (List.length ops))
    QCheck.Gen.(pair slab_shape_gen slab_ops_gen)

let prop_slab_unique =
  QCheck.Test.make ~name:"slab trees == map oracle (unique keys)" ~count:150
    slab_arb (fun (shape, ops) ->
      List.for_all
        (fun preallocate ->
          let t = T.create ~config:(slab_config ~unique:true ~preallocate shape) () in
          let m =
            List.fold_left
              (fun m (op, k, v) ->
                match op with
                | 0 ->
                    let fresh = not (IntMap.mem k m) in
                    assert (T.insert t k v = fresh);
                    if fresh then IntMap.add k v m else m
                | 1 ->
                    assert (T.delete t k 0 = IntMap.mem k m);
                    IntMap.remove k m
                | 2 ->
                    let present = IntMap.mem k m in
                    assert (T.update t k v = present);
                    if present then IntMap.add k v m else m
                | _ ->
                    assert (T.find t k = IntMap.find_opt k m);
                    m)
              IntMap.empty ops
          in
          T.verify_invariants t;
          T.scan_all t () = IntMap.bindings m)
        [ true; false ])

(* Non-unique keys: the tree holds a set of (key, value) pairs; an update
   replaces one of its key's values, so the oracle only predicts it on a
   key holding at most one value (the op is skipped otherwise). *)
let prop_slab_non_unique =
  let module PS = Set.Make (struct
    type t = int * int

    let compare = compare
  end) in
  QCheck.Test.make ~name:"slab trees == pair-set oracle (non-unique keys)"
    ~count:150 slab_arb (fun (shape, ops) ->
      List.for_all
        (fun preallocate ->
          let t =
            T.create ~config:(slab_config ~unique:false ~preallocate shape) ()
          in
          let values k m =
            List.sort compare
              (List.filter_map
                 (fun (k', v) -> if k' = k then Some v else None)
                 (PS.elements m))
          in
          let m =
            List.fold_left
              (fun m (op, k, v) ->
                match op with
                | 0 ->
                    let fresh = not (PS.mem (k, v) m) in
                    assert (T.insert t k v = fresh);
                    PS.add (k, v) m
                | 1 ->
                    assert (T.delete t k v = PS.mem (k, v) m);
                    PS.remove (k, v) m
                | 2 -> (
                    match values k m with
                    | [] ->
                        assert (not (T.update t k v));
                        m
                    | [ u ] ->
                        assert (T.update t k v);
                        PS.add (k, v) (PS.remove (k, u) m)
                    | _ -> m)
                | _ ->
                    assert (List.sort compare (T.lookup t k) = values k m);
                    m)
              PS.empty ops
          in
          T.verify_invariants t;
          List.sort compare (T.scan_all t ()) = PS.elements m)
        [ true; false ])

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "bwtree-props"
    [
      ( "model",
        [
          q prop_model_agreement;
          q prop_invariants_hold;
          q prop_delete_is_inverse;
          q prop_non_unique_multiset;
        ] );
      ("slab", [ q prop_slab_unique; q prop_slab_non_unique ]);
      ( "batch",
        [
          q prop_batch_equals_sequential;
          q prop_large_batch_equals_sequential;
          q prop_batch_equals_sequential_non_unique;
        ] );
      ( "iteration",
        [
          q prop_forward_iteration_sorted;
          q prop_backward_iteration_sorted;
          q prop_scan_matches_model_window;
        ] );
      ("ablation", [ q prop_freeze_agrees; q prop_config_independence ]);
      ("routing", [ q prop_routing_int; q prop_routing_string ]);
    ]
