(* Single-threaded functional tests for the Bw-Tree: model-based checks
   against Stdlib.Map, SMO coverage, iterators, non-unique keys, the
   consolidation-equivalence property, and the §6.3 ablation hooks. *)

module IK = Index_iface.Int_key
module IV = Index_iface.Int_value
module T = Bwtree.Make (IK) (IV)
module SK = Index_iface.String_key
module TS = Bwtree.Make (SK) (IV)
module IntMap = Map.Make (Int)

let rng = Bw_util.Rng.create ~seed:0xBEEFL

(* a tree counting into its own registry, for tests that read its stats *)
let counted ?config () =
  T.create ?config ~obs:(Bw_obs.sink (Bw_obs.create ())) ()

(* a tiny-node config that forces frequent splits, merges and
   consolidations so SMO paths get heavy coverage even in small tests *)
let tiny =
  Bwtree.Config.make ~leaf_max:8 ~inner_max:6 ~leaf_chain_max:4
    ~inner_chain_max:2 ~leaf_min:2 ~inner_min:2 ()

let all_configs =
  [
    ("default", Bwtree.default_config);
    ("microsoft", Bwtree.microsoft_config);
    ("tiny", tiny);
    ("no-prealloc", Bwtree.Config.make ~preallocate:false ());
    ("no-fc", Bwtree.Config.make ~fast_consolidation:false ());
    ("no-ss", Bwtree.Config.make ~search_shortcuts:false ());
    ("gc-centralized",
     Bwtree.Config.make ~gc_scheme:Epoch.Centralized ());
    ("gc-off", Bwtree.Config.make ~gc_scheme:Epoch.Disabled ());
  ]

(* --- basic semantics --- *)

let test_empty () =
  let t = T.create () in
  Alcotest.(check (list int)) "lookup empty" [] (T.lookup t 1);
  Alcotest.(check bool) "delete empty" false (T.delete t 1 1);
  Alcotest.(check bool) "update empty" false (T.update t 1 1);
  Alcotest.(check int) "cardinal" 0 (T.cardinal t);
  Alcotest.(check (list (pair int int))) "scan empty" [] (T.scan t ~n:10 0);
  T.verify_invariants t

let test_single_key () =
  let t = T.create () in
  Alcotest.(check bool) "insert" true (T.insert t 5 50);
  Alcotest.(check bool) "duplicate rejected" false (T.insert t 5 51);
  Alcotest.(check (list int)) "lookup" [ 50 ] (T.lookup t 5);
  Alcotest.(check bool) "update" true (T.update t 5 55);
  Alcotest.(check (list int)) "updated" [ 55 ] (T.lookup t 5);
  Alcotest.(check bool) "delete" true (T.delete t 5 55);
  Alcotest.(check (list int)) "gone" [] (T.lookup t 5);
  Alcotest.(check bool) "delete again" false (T.delete t 5 55);
  T.verify_invariants t

let test_negative_and_extreme_keys () =
  let t = T.create () in
  let keys = [ min_int; -1000; -1; 0; 1; 1000; max_int ] in
  List.iter (fun k -> assert (T.insert t k (k lxor 7))) keys;
  List.iter
    (fun k -> Alcotest.(check (list int)) "roundtrip" [ k lxor 7 ] (T.lookup t k))
    keys;
  Alcotest.(check (list (pair int int)))
    "sorted scan"
    (List.map (fun k -> (k, k lxor 7)) keys)
    (T.scan_all t ());
  T.verify_invariants t

(* --- model-based random operations, across all configurations --- *)

let model_ops config () =
  let t = T.create ~config () in
  let model = ref IntMap.empty in
  let n_ops = 6_000 in
  for _ = 1 to n_ops do
    let k = Bw_util.Rng.next_int rng 800 in
    match Bw_util.Rng.next_int rng 4 with
    | 0 ->
        let expected = not (IntMap.mem k !model) in
        Alcotest.(check bool) "insert result" expected (T.insert t k (k * 3));
        if expected then model := IntMap.add k (k * 3) !model
    | 1 ->
        let v = Bw_util.Rng.next_int rng 10_000 in
        let expected = IntMap.mem k !model in
        Alcotest.(check bool) "update result" expected (T.update t k v);
        if expected then model := IntMap.add k v !model
    | 2 ->
        let expected = IntMap.mem k !model in
        Alcotest.(check bool) "delete result" expected (T.delete t k 0);
        model := IntMap.remove k !model
    | _ ->
        let expected =
          match IntMap.find_opt k !model with None -> [] | Some v -> [ v ]
        in
        Alcotest.(check (list int)) "lookup" expected (T.lookup t k)
  done;
  T.verify_invariants t;
  (* final full agreement *)
  Alcotest.(check (list (pair int int)))
    "full contents" (IntMap.bindings !model)
    (T.scan_all t ())

(* --- SMO coverage: growth and shrink --- *)

let test_split_cascade () =
  let t = counted ~config:tiny () in
  for k = 0 to 2_000 do
    assert (T.insert t k k)
  done;
  let ss = T.structure_stats t in
  Alcotest.(check bool) "tree grew" true (ss.depth >= 3);
  let os = T.op_stats t in
  Alcotest.(check bool) "splits happened" true (os.splits > 50);
  T.verify_invariants t;
  for k = 0 to 2_000 do
    assert (T.lookup t k = [ k ])
  done

let test_merge_cascade () =
  let t = counted ~config:tiny () in
  for k = 0 to 2_000 do
    assert (T.insert t k k)
  done;
  for k = 0 to 2_000 do
    if k mod 50 <> 0 then assert (T.delete t k k)
  done;
  let os = T.op_stats t in
  Alcotest.(check bool) "merges happened" true (os.merges > 10);
  T.verify_invariants t;
  for k = 0 to 2_000 do
    let expect = if k mod 50 = 0 then [ k ] else [] in
    Alcotest.(check (list int)) "post-merge lookup" expect (T.lookup t k)
  done;
  (* most of the structure must have collapsed (from ~1500 leaves); what
     remains includes leftmost children, which per §2.4 may only merge
     into a left sibling and can therefore strand *)
  let ss = T.structure_stats t in
  Alcotest.(check bool) "most leaves merged away" true (ss.leaf_nodes < 150)

let test_reverse_insert () =
  let t = T.create ~config:tiny () in
  for k = 2_000 downto 0 do
    assert (T.insert t k k)
  done;
  T.verify_invariants t;
  Alcotest.(check int) "cardinal" 2_001 (T.cardinal t)

(* --- consolidation equivalence: fast path == slow path --- *)

let prop_consolidation_equivalence =
  (* the same operation sequence applied with and without §4.3/§4.4
     optimizations must produce identical contents *)
  let gen =
    QCheck.(list_of_size (Gen.int_range 1 300) (pair (int_bound 3) (int_bound 60)))
  in
  QCheck.Test.make ~name:"fast consolidation == slow consolidation" ~count:60
    gen (fun ops ->
      let mk config =
        let t = T.create ~config () in
        List.iter
          (fun (op, k) ->
            match op with
            | 0 -> ignore (T.insert t k (k + 1000))
            | 1 -> ignore (T.delete t k 0)
            | 2 -> ignore (T.update t k (k + 2000))
            | _ -> ignore (T.lookup t k))
          ops;
        T.consolidate_all t;
        T.scan_all t ()
      in
      let fast = mk { tiny with fast_consolidation = true } in
      let slow = mk { tiny with fast_consolidation = false } in
      fast = slow)

(* --- non-unique keys (§3.1) --- *)

let nuniq = Bwtree.Config.make ~unique_keys:false ()

let test_non_unique_basic () =
  let t = T.create ~config:nuniq () in
  Alcotest.(check bool) "v1" true (T.insert t 1 10);
  Alcotest.(check bool) "v2" true (T.insert t 1 20);
  Alcotest.(check bool) "v3" true (T.insert t 1 30);
  Alcotest.(check bool) "dup pair rejected" false (T.insert t 1 20);
  Alcotest.(check (list int)) "all values" [ 10; 20; 30 ]
    (List.sort compare (T.lookup t 1));
  Alcotest.(check bool) "delete one value" true (T.delete t 1 20);
  Alcotest.(check (list int)) "two left" [ 10; 30 ]
    (List.sort compare (T.lookup t 1));
  Alcotest.(check bool) "delete absent value" false (T.delete t 1 20);
  T.verify_invariants t

let test_non_unique_visibility_chain () =
  (* exercise the §3.1 S_present / S_deleted walk within one delta chain *)
  let t = T.create ~config:{ nuniq with leaf_chain_max = 32 } () in
  assert (T.insert t 7 1);
  assert (T.insert t 7 2);
  assert (T.delete t 7 1);
  assert (T.insert t 7 3);
  assert (T.delete t 7 3);
  assert (T.insert t 7 1);
  Alcotest.(check (list int)) "visible set" [ 1; 2 ]
    (List.sort compare (T.lookup t 7));
  T.consolidate_all t;
  Alcotest.(check (list int)) "after consolidation" [ 1; 2 ]
    (List.sort compare (T.lookup t 7));
  T.verify_invariants t

let test_non_unique_model () =
  (* model: a set of (key, value) pairs *)
  let t = T.create ~config:{ nuniq with leaf_max = 16; leaf_min = 2 } () in
  let module PS = Set.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let model = ref PS.empty in
  for _ = 1 to 5_000 do
    let k = Bw_util.Rng.next_int rng 50 in
    let v = Bw_util.Rng.next_int rng 8 in
    if Bw_util.Rng.next_bool rng then begin
      let expected = not (PS.mem (k, v) !model) in
      Alcotest.(check bool) "nu insert" expected (T.insert t k v);
      model := PS.add (k, v) !model
    end
    else begin
      let expected = PS.mem (k, v) !model in
      Alcotest.(check bool) "nu delete" expected (T.delete t k v);
      model := PS.remove (k, v) !model
    end
  done;
  T.verify_invariants t;
  Alcotest.(check (list (pair int int)))
    "nu contents" (PS.elements !model)
    (List.sort compare (T.scan_all t ()))

(* --- iterators (§3.2, Appendix C) --- *)

let test_iterator_forward () =
  let t = T.create ~config:tiny () in
  for k = 0 to 500 do
    assert (T.insert t (k * 2) k)
  done;
  (* seek exact, seek between keys, seek past end *)
  let it = T.Iterator.seek t 100 in
  (match T.Iterator.current it with
  | Some (k, _) -> Alcotest.(check int) "seek exact" 100 k
  | None -> Alcotest.fail "expected item");
  let it = T.Iterator.seek t 101 in
  (match T.Iterator.current it with
  | Some (k, _) -> Alcotest.(check int) "seek rounds up" 102 k
  | None -> Alcotest.fail "expected item");
  let it = T.Iterator.seek t 10_000 in
  Alcotest.(check bool) "past end" true (T.Iterator.current it = None);
  (* full forward walk *)
  let it = T.Iterator.seek_first t () in
  let count = ref 0 and last = ref (-1) in
  let rec go () =
    match T.Iterator.current it with
    | Some (k, _) ->
        Alcotest.(check bool) "ascending" true (k > !last);
        last := k;
        incr count;
        T.Iterator.next it;
        go ()
    | None -> ()
  in
  go ();
  Alcotest.(check int) "walked all" 501 !count

(* [seek_first] and [iter_leaf_pages] both start at the leftmost leaf;
   deleting the low nine tenths of the keys merges the leaves along the
   leftmost spine, which both descents must follow *)
let test_leftmost_spine_after_merges () =
  let t = T.create ~config:tiny () in
  for k = 0 to 999 do
    ignore (T.insert t k k)
  done;
  for k = 0 to 899 do
    ignore (T.delete t k k)
  done;
  T.verify_invariants t;
  Alcotest.(check (option (pair int int))) "seek_first" (Some (900, 900))
    (T.Iterator.current (T.Iterator.seek_first t ()));
  let paged = ref [] and pages = ref 0 in
  T.iter_leaf_pages t (fun page ->
      incr pages;
      T.Page.iter_from page 0 (fun k v -> paged := (k, v) :: !paged));
  Alcotest.(check bool) "several leaves" true (!pages > 1);
  Alcotest.(check (list (pair int int))) "leaf pages cover the tree in order"
    (List.init 100 (fun i -> (900 + i, 900 + i)))
    (List.rev !paged)

let test_iterator_backward () =
  let t = T.create ~config:tiny () in
  for k = 0 to 500 do
    assert (T.insert t (k * 2) k)
  done;
  let it = T.Iterator.seek t 500 in
  let count = ref 0 and last = ref max_int in
  let rec go () =
    match T.Iterator.current it with
    | Some (k, _) ->
        Alcotest.(check bool) "descending" true (k < !last);
        last := k;
        incr count;
        T.Iterator.prev it;
        go ()
    | None -> ()
  in
  go ();
  (* keys 0,2,...,500 -> 251 items at or below 500 *)
  Alcotest.(check int) "walked down" 251 !count

let test_iterator_bidirectional () =
  let t = T.create ~config:tiny () in
  for k = 1 to 100 do
    assert (T.insert t k k)
  done;
  let it = T.Iterator.seek t 50 in
  T.Iterator.next it;
  T.Iterator.next it;
  T.Iterator.prev it;
  (match T.Iterator.current it with
  | Some (k, _) -> Alcotest.(check int) "zig-zag" 51 k
  | None -> Alcotest.fail "expected item");
  T.Iterator.prev it;
  T.Iterator.prev it;
  (match T.Iterator.current it with
  | Some (k, _) -> Alcotest.(check int) "back to 49" 49 k
  | None -> Alcotest.fail "expected item")

let test_scan_bounded () =
  let t = T.create () in
  for k = 0 to 999 do
    assert (T.insert t k k)
  done;
  let items = T.scan t ~n:48 100 in
  Alcotest.(check int) "scan length" 48 (List.length items);
  Alcotest.(check int) "scan start" 100 (fst (List.hd items));
  let items = T.scan t ~n:100 980 in
  Alcotest.(check int) "truncated at end" 20 (List.length items)

(* --- §6.3 ablation hooks --- *)

let test_freeze_equivalence () =
  let t = T.create ~config:tiny () in
  for _ = 1 to 2_000 do
    let k = Bw_util.Rng.next_int rng 3_000 in
    ignore (T.insert t k (k * 7))
  done;
  let frozen = T.freeze t in
  for k = 0 to 3_000 do
    Alcotest.(check (list int)) "frozen == live" (T.lookup t k)
      (T.frozen_lookup frozen k)
  done

let test_consolidate_all_flattens () =
  let t = T.create ~config:tiny () in
  for k = 0 to 500 do
    assert (T.insert t k k)
  done;
  T.consolidate_all t;
  let ss = T.structure_stats t in
  Alcotest.(check (float 0.001)) "leaf chains empty" 0.0 ss.avg_leaf_chain;
  Alcotest.(check (float 0.001)) "inner chains empty" 0.0 ss.avg_inner_chain;
  for k = 0 to 500 do
    assert (T.lookup t k = [ k ])
  done

let test_inplace_leaf_updates () =
  let config = Bwtree.Config.make ~inplace_leaf_update:true () in
  let t = T.create ~config () in
  for k = 0 to 2_000 do
    assert (T.insert t k k)
  done;
  T.verify_invariants t;
  for k = 0 to 2_000 do
    assert (T.lookup t k = [ k ])
  done;
  (* delta chains should be essentially absent on leaves *)
  let ss = T.structure_stats t in
  Alcotest.(check bool) "short leaf chains" true (ss.avg_leaf_chain < 1.0)

let test_no_cas_config () =
  let config = Bwtree.Config.make ~use_atomic_cas:false () in
  let t = T.create ~config () in
  for k = 0 to 1_000 do
    assert (T.insert t k k)
  done;
  for k = 0 to 1_000 do
    assert (T.lookup t k = [ k ])
  done;
  T.verify_invariants t

(* --- statistics and introspection --- *)

let test_stats_sanity () =
  let t = counted ~config:tiny () in
  for k = 0 to 999 do
    assert (T.insert t k k)
  done;
  ignore (T.lookup t 5);
  ignore (T.update t 5 99);
  ignore (T.delete t 5 99);
  let os = T.op_stats t in
  Alcotest.(check int) "inserts" 1000 os.inserts;
  Alcotest.(check int) "lookups" 1 os.lookups;
  Alcotest.(check int) "updates" 1 os.updates;
  Alcotest.(check int) "deletes" 1 os.deletes;
  Alcotest.(check bool) "consolidations" true (os.consolidations > 0);
  let ss = T.structure_stats t in
  Alcotest.(check bool) "leaf count plausible" true
    (ss.leaf_nodes * tiny.leaf_max >= 999);
  let ms = T.mapping_table_stats t in
  Alcotest.(check bool) "ids allocated" true (ms.allocated > ss.leaf_nodes);
  Alcotest.(check bool) "chunks faulted" true (ms.chunks >= 1);
  Alcotest.(check bool)
    "within capacity" true
    (ms.allocated < ms.table_capacity);
  Alcotest.(check bool) "freed sane" true (ms.freed >= 0);
  Alcotest.(check bool) "memory measured" true (T.memory_words t > 1000)

let test_gc_integration () =
  let t = T.create ~config:{ tiny with gc_threshold = 4 } () in
  for k = 0 to 5_000 do
    assert (T.insert t k k)
  done;
  T.quiesce t ~tid:0;
  T.gc_advance t;
  Epoch.flush (T.epoch t);
  let s = Epoch.stats (T.epoch t) in
  Alcotest.(check bool) "consolidations retired garbage" true (s.retired > 0);
  Alcotest.(check int) "all reclaimed at quiescence" 0
    (Epoch.pending (T.epoch t))

(* --- string keys --- *)

let test_string_keys () =
  let t = TS.create ~config:tiny () in
  let emails = Array.init 2_000 Workload.email_key_of in
  Array.iteri (fun i e -> ignore (TS.insert t e i)) emails;
  Array.iteri
    (fun i e ->
      match TS.lookup t e with
      | [ v ] -> Alcotest.(check bool) "some insert won" true (v >= 0 && i >= 0)
      | [] -> Alcotest.fail "lost key"
      | _ -> Alcotest.fail "duplicate")
    emails;
  TS.verify_invariants t;
  (* scan order is lexicographic *)
  let all = TS.scan_all t () in
  let keys = List.map fst all in
  Alcotest.(check bool) "sorted" true
    (List.sort compare keys = keys)

(* --- boundary conditions --- *)

let test_iterator_empty_tree () =
  let t = T.create () in
  let it = T.Iterator.seek_first t () in
  Alcotest.(check bool) "empty current" true (T.Iterator.current it = None);
  T.Iterator.next it;
  T.Iterator.prev it;
  Alcotest.(check bool) "still empty" true (T.Iterator.current it = None);
  let it2 = T.Iterator.seek t 42 in
  T.Iterator.prev it2;
  Alcotest.(check bool) "empty backward" true (T.Iterator.current it2 = None)

let test_iterator_reverses_at_ends () =
  let t = T.create () in
  for k = 1 to 10 do
    assert (T.insert t k k)
  done;
  (* walk off the right end, then back in *)
  let it = T.Iterator.seek t 10 in
  T.Iterator.next it;
  Alcotest.(check bool) "past end" true (T.Iterator.current it = None);
  T.Iterator.prev it;
  (match T.Iterator.current it with
  | Some (k, _) -> Alcotest.(check int) "back to last" 10 k
  | None -> Alcotest.fail "expected last item");
  (* walk off the left end, then back in *)
  let it = T.Iterator.seek t 1 in
  T.Iterator.prev it;
  Alcotest.(check bool) "before begin" true (T.Iterator.current it = None);
  T.Iterator.next it;
  (match T.Iterator.current it with
  | Some (k, _) -> Alcotest.(check int) "back to first" 1 k
  | None -> Alcotest.fail "expected first item")

let test_scan_zero_and_negative_bounds () =
  let t = T.create () in
  for k = 0 to 99 do
    assert (T.insert t k k)
  done;
  Alcotest.(check (list (pair int int))) "n=0" [] (T.scan t ~n:0 10);
  Alcotest.(check int) "negative start clamps to first" 100
    (List.length (T.scan t min_int))

let test_update_preserves_size_accounting () =
  let t = T.create ~config:tiny () in
  for k = 0 to 99 do
    assert (T.insert t k k)
  done;
  for _ = 1 to 10 do
    for k = 0 to 99 do
      assert (T.update t k (k + 1))
    done
  done;
  (* updates must not inflate node sizes or trigger bogus splits *)
  T.verify_invariants t;
  Alcotest.(check int) "cardinal stable" 100 (T.cardinal t)

(* --- debugging surface --- *)

let test_dump_renders () =
  let t = T.create ~config:tiny () in
  for k = 0 to 200 do
    ignore (T.insert t k k)
  done;
  ignore (T.delete t 7 7);
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  T.dump t ppf;
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  Alcotest.(check bool) "mentions leaves" true
    (String.length out > 100);
  (* the root line and at least one delta op should be present *)
  Alcotest.(check bool) "shows inner node" true
    (String.length out > 0 && String.sub out 0 5 = "inner")

let test_counters_wiring () =
  let reg = Bw_obs.create () in
  let t = T.create ~obs:(Bw_obs.sink reg) () in
  for k = 0 to 99 do
    ignore (T.insert t k k)
  done;
  ignore (T.lookup t 50);
  Alcotest.(check bool) "cas counted" true
    (Bw_obs.count reg Bw_obs.C_cas_attempts >= 100);
  Alcotest.(check bool) "derefs counted" true
    (Bw_obs.count reg Bw_obs.C_ptr_derefs > 0);
  Alcotest.(check int) "inserts" 100 (Bw_obs.count reg Bw_obs.C_inserts);
  Alcotest.(check int) "one epoch enter per op" 101
    (Bw_obs.count reg Bw_obs.C_epoch_enters)

(* A tree on the null sink counts nothing, so its stats readers refuse
   rather than report zeros that look real. *)
let test_stats_need_registry () =
  let t = T.create () in
  ignore (T.insert t 1 1);
  Alcotest.check_raises "op_stats"
    (Invalid_argument "Bwtree.op_stats: the tree has no Bw_obs registry")
    (fun () -> ignore (T.op_stats t))

let test_iter_nodes_consistent () =
  let t = T.create ~config:tiny () in
  for k = 0 to 999 do
    ignore (T.insert t k k)
  done;
  let leaves = ref 0 and inners = ref 0 and items = ref 0 in
  T.iter_nodes t (fun ~leaf ~chain:_ ~size ->
      if leaf then begin
        incr leaves;
        items := !items + size
      end
      else incr inners);
  let ss = T.structure_stats t in
  Alcotest.(check int) "leaf count" ss.leaf_nodes !leaves;
  Alcotest.(check int) "inner count" ss.inner_nodes !inners;
  Alcotest.(check int) "total items" 1000 !items

(* --- config validation --- *)

let test_config_validation () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  (* default leaf_min is 16, so shrinking leaf_max alone is incoherent *)
  expect_invalid "leaf_min >= leaf_max" (fun () ->
      Bwtree.Config.make ~leaf_max:8 ());
  expect_invalid "inner_min >= inner_max" (fun () ->
      Bwtree.Config.make ~inner_max:4 ());
  expect_invalid "leaf_chain_max < 1" (fun () ->
      Bwtree.Config.make ~leaf_chain_max:0 ());
  expect_invalid "gc_threshold < 1" (fun () ->
      Bwtree.Config.make ~gc_threshold:0 ());
  expect_invalid "max_threads < 1" (fun () ->
      Bwtree.Config.make ~max_threads:0 ());
  (* [create] re-validates raw record updates *)
  expect_invalid "create rejects raw incoherent record" (fun () ->
      T.create ~config:{ Bwtree.default_config with leaf_max = 4 } ());
  (* coherent settings pass, including via ?base *)
  let tiny' = Bwtree.Config.make ~leaf_max:8 ~leaf_min:2 () in
  Alcotest.(check int) "make applies field" 8 tiny'.Bwtree.leaf_max;
  let derived = Bwtree.Config.make ~base:tiny ~unique_keys:false () in
  Alcotest.(check bool) "base carried" true (derived.Bwtree.leaf_max = 8)

(* --- upsert --- *)

let test_upsert () =
  let t = T.create () in
  T.upsert t 1 10;
  T.upsert t 1 20;
  Alcotest.(check (list int)) "upsert replaces" [ 20 ] (T.lookup t 1)

(* --- read path --- *)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let dump_string t =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  T.dump t ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* A split whose separator is posted must not be re-helped by every read
   that lands on its left leaf: before the split delta recorded Stage III
   as done, each such read re-ran help-along (copying the parent). *)
let test_finished_split_reads () =
  let config =
    Bwtree.Config.make ~leaf_max:8 ~leaf_min:2 ~read_consolidation:false ()
  in
  let t = counted ~config () in
  (* ascending inserts: the 9th overflows the only leaf, which splits at
     key 4 with its separator posted by the inserting descent *)
  for k = 0 to 8 do
    assert (T.insert t k k)
  done;
  let d = dump_string t in
  Alcotest.(check bool) "left leaf topped by a split" true (contains d "SPLIT(");
  Alcotest.(check bool) "split marked done" false (contains d "pending");
  let helps0 = (T.op_stats t).smo_helps in
  for _ = 1 to 20 do
    Alcotest.(check (option int)) "left-leaf key" (Some 1) (T.find t 1)
  done;
  Alcotest.(check int) "no help-along on a finished split" helps0
    (T.op_stats t).smo_helps;
  T.verify_invariants t

(* A unique-key read on a consolidated tree allocates only its [Some]
   (plus the caller's boxed optional [~tid]). *)
let test_find_allocation () =
  let t = T.create () in
  let n = 20_000 in
  for i = 0 to n - 1 do
    assert (T.insert t ((i * 7919) mod n) i)
  done;
  T.consolidate_all t;
  for k = 0 to n - 1 do
    assert (T.find t ~tid:0 k <> None)
  done;
  let reps = 5 in
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    for k = 0 to n - 1 do
      ignore (Sys.opaque_identity (T.find t ~tid:0 k))
    done
  done;
  let per_op = (Gc.minor_words () -. w0) /. float_of_int (reps * n) in
  if per_op > 8.0 then
    Alcotest.failf "find allocates %.2f minor words per call (limit 8)" per_op

(* A point update that appends without consolidating allocates its
   delta (one block), the probe's [Some] and at most a short ancestor
   path. A chain threshold that never fires keeps every update
   an append; updates change no sizes, so nothing splits either. The
   tree has no registry (one would time every op), so consolidation is
   checked on the chains: every update must still sit in one. *)
let test_update_allocation () =
  let t = T.create ~config:(Bwtree.Config.make ~leaf_chain_max:1_000 ()) () in
  let n = 20_000 in
  for i = 0 to n - 1 do
    assert (T.insert t ((i * 7919) mod n) i)
  done;
  T.consolidate_all t;
  let leaf_deltas () =
    let d = ref 0 in
    T.iter_nodes t (fun ~leaf ~chain ~size:_ -> if leaf then d := !d + chain);
    !d
  in
  Alcotest.(check int) "consolidated" 0 (leaf_deltas ());
  let reps = 2 in
  let w0 = Gc.minor_words () in
  for r = 1 to reps do
    for k = 0 to n - 1 do
      ignore (Sys.opaque_identity (T.update t k (k + r)))
    done
  done;
  let per_op = (Gc.minor_words () -. w0) /. float_of_int (reps * n) in
  Alcotest.(check int) "no consolidation" (reps * n) (leaf_deltas ());
  Alcotest.(check (option int)) "updated" (Some (7 + reps)) (T.find t 7);
  if per_op > 24.0 then
    Alcotest.failf "update allocates %.2f minor words per call (limit 24)"
      per_op

(* Pay-per-use footprint: an empty tree holds no pre-faulted mapping-table
   chunk, only its per-thread state (5 210 words at 64 threads, most of
   it the cache-line padding of the cursors and epoch cells). Without
   pre-allocation each data delta is one block that shares its node's
   range record: 9 words for an update (header, range, next, size, depth,
   offset, key, old and new value), 8 for an insert or delete. With it
   (the default), a consolidated leaf's first append allocates its slab —
   key, value and meta arrays of leaf_chain_max + 1 slots (a unique-key
   tree keeps no old values), the slab record and its two markers — plus
   the 7-word head; every later append writes into the slab and replaces
   the head, so the reachable heap does not grow. Garbage retired by
   consolidation is flushed first, as the benchmark's heap figure does. *)
let test_memory_footprint () =
  let empty = T.memory_words (T.create ()) in
  if empty > 8 * 1024 then
    Alcotest.failf "empty tree holds %d words (limit %d)" empty (8 * 1024);
  let footprint config ~first steps =
    let t = T.create ~config () in
    for k = 0 to 15 do
      assert (T.insert t (2 * k) k)
    done;
    T.consolidate_all t;
    let words () =
      Epoch.flush (T.epoch t);
      T.memory_words t
    in
    let step name limit op =
      let w0 = words () in
      assert (op ());
      let grew = words () - w0 in
      if grew > limit then
        Alcotest.failf "%s adds %d reachable words (limit %d)" name grew limit
    in
    Option.iter
      (fun limit -> step "first append" limit (fun () -> T.update t 6 3))
      first;
    let u, i, d = steps in
    step "update" u (fun () -> T.update t 4 100);
    step "insert" i (fun () -> T.insert t 5 5);
    step "delete" d (fun () -> T.delete t 8 4);
    Alcotest.(check (option int)) "update visible" (Some 100) (T.find t 4);
    Alcotest.(check (option int)) "insert visible" (Some 5) (T.find t 5);
    Alcotest.(check (option int)) "delete visible" None (T.find t 8);
    T.verify_invariants t
  in
  footprint (Bwtree.Config.make ~preallocate:false ()) ~first:None (9, 8, 8);
  let slots = Bwtree.default_config.leaf_chain_max + 1 in
  footprint Bwtree.default_config
    ~first:(Some ((3 * (slots + 1)) + 7 + 4 + 7))
    (0, 0, 0)

(* A thread's cursor, which every point operation writes, keeps a line of
   padding fields before and after its hot fields inside the block: after
   inserts, reads, updates, deletes, a batch and a scan on tid 1, the
   fields that changed all lie at least a line from either end, and tid
   0's cursor is untouched. *)
let test_cursor_padding () =
  let line = Bw_util.Padded.line_words in
  let t = T.create () in
  let fields tid =
    let c = T.cursor_block t ~tid in
    Array.init (Obj.size c) (Obj.field c)
  in
  let before0 = fields 0 and before1 = fields 1 in
  let size = Array.length before1 in
  if size < 7 + (2 * line) then
    Alcotest.failf "cursor has %d fields, fewer than its 7 hot fields and                     two lines of padding" size;
  for k = 0 to 599 do
    assert (T.insert t ~tid:1 k k)
  done;
  for k = 0 to 599 do
    ignore (T.find t ~tid:1 k : int option);
    if k mod 3 = 0 then assert (T.update t ~tid:1 k (k + 1));
    if k mod 3 = 1 then assert (T.delete t ~tid:1 k k)
  done;
  ignore (T.execute_batch t ~tid:1 (Array.init 32 (fun i -> (i * 9, T.B_get))));
  ignore (T.scan t ~tid:1 ~n:10 100);
  let after1 = fields 1 in
  let changed = ref 0 in
  Array.iteri
    (fun i w ->
      if after1.(i) != w then begin
        incr changed;
        if i < line || i >= size - line then
          Alcotest.failf "cursor field %d, within a line of the block's end,                           was written" i
      end)
    before1;
  Alcotest.(check bool) "the ops wrote the cursor" true (!changed > 0);
  Array.iteri
    (fun i w ->
      if (fields 0).(i) != w then
        Alcotest.failf "tid 0's cursor field %d was written" i)
    before0

(* Steady-state updates on one chained leaf allocate only the new head
   (7 words), the probe's [Some] (2) and the write descent's one-level
   ancestor path (a 3-word cons): the delta itself lives in the leaf's
   slab. Heap deltas allocated a 9-word [LUpd] block in the head's
   place, 14 words per update. The slab is allocated before measuring,
   and the chain threshold is high enough that no update consolidates. *)
let test_slab_update_allocation () =
  let t =
    T.create ~config:(Bwtree.Config.make ~leaf_chain_max:200 ()) ()
  in
  for k = 0 to 63 do
    assert (T.insert t k k)
  done;
  T.consolidate_all t;
  assert (T.update t 0 0);
  let n = 150 in
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    ignore (Sys.opaque_identity (T.update t (i mod 64) i))
  done;
  let per_op = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check int) "one leaf, one run" (n + 1) (fst (T.max_chains t));
  T.verify_invariants t;
  if per_op > 12.0 then
    Alcotest.failf "update allocates %.2f minor words per call (limit 12)"
      per_op

(* A unique-key batch of reads allocates per op only its answer
   ([R_values] of a one-element list, from the walk's [Some]); the op
   loop itself builds no closures, tuples or cached-traversal options.
   Each batch reads a shuffled run of 128 adjacent keys, so it spans a
   few leaves and re-descends rarely. *)
let test_batch_get_allocation () =
  let t = T.create () in
  let n = 20_000 and b = 128 in
  for i = 0 to n - 1 do
    assert (T.insert t ((i * 7919) mod n) i)
  done;
  T.consolidate_all t;
  let batches =
    Array.init (n / b) (fun j ->
        Array.init b (fun i -> ((j * b) + ((i * 37) mod b), T.B_get)))
  in
  (* warm the per-tid permutation scratch *)
  ignore (T.execute_batch t ~tid:0 batches.(0));
  let w0 = Gc.minor_words () in
  Array.iter
    (fun ops ->
      match (T.execute_batch t ~tid:0 ops).(b - 1) with
      | T.R_values [ _ ] -> ()
      | _ -> Alcotest.fail "batched read missed")
    batches;
  let words = Gc.minor_words () -. w0 in
  (* the result array: b slots and a header *)
  let beyond = words -. float_of_int (Array.length batches * (b + 1)) in
  let per_op = beyond /. float_of_int (Array.length batches * b) in
  if per_op > 8.0 then
    Alcotest.failf
      "batched get allocates %.2f minor words per op beyond its results \
       array (limit 8)"
      per_op

(* The per-tid permutation row only grows: after a batch of 16, batches
   of 7, 12 and 9 reuse it. Each such batch of misses on a one-leaf tree
   allocates its results array (n slots and a header) and its one
   descent's ancestor path (one 3-word cons); a fresh row would add
   another n + 1 words, 31 over the three. *)
let test_batch_perm_row_reused () =
  let t = T.create () in
  for k = 0 to 99 do
    assert (T.insert t k k)
  done;
  T.consolidate_all t;
  let batch n = Array.init n (fun i -> (1000 + ((i * 5) mod n), T.B_get)) in
  ignore (T.execute_batch t ~tid:0 (batch 16));
  let batches = [| batch 7; batch 12; batch 9 |] in
  let results = Array.make 3 [||] in
  let w0 = Gc.minor_words () in
  for i = 0 to 2 do
    results.(i) <- T.execute_batch t ~tid:0 batches.(i)
  done;
  let words = int_of_float (Gc.minor_words () -. w0) in
  Array.iter
    (Array.iter (fun r ->
         if r <> T.R_values [] then Alcotest.fail "batched miss hit"))
    results;
  let expected =
    Array.fold_left (fun acc ops -> acc + Array.length ops + 1 + 3) 0 batches
  in
  Alcotest.(check int) "results arrays and paths only" expected words

(* A batch must carry on from the heads its own housekeeping installs:
   a single thread updating one leaf 100 times consolidates it several
   times inside the batch, and none of that may surface as a failed CaS
   or a restart (which it did while the batch kept the superseded
   head). *)
let test_batch_own_consolidations () =
  let t = counted () in
  for k = 0 to 49 do
    assert (T.insert t k k)
  done;
  T.consolidate_all t;
  Alcotest.(check int) "one leaf" 1 (T.structure_stats t).leaf_nodes;
  let s0 = T.op_stats t in
  let ops = Array.init 100 (fun i -> (i mod 50, T.B_update (1000 + i))) in
  let res = T.execute_batch t ops in
  Array.iter
    (fun r -> Alcotest.(check bool) "applied" true (r = T.R_applied true))
    res;
  let s1 = T.op_stats t in
  Alcotest.(check bool) "the batch consolidated its leaf" true
    (s1.consolidations - s0.consolidations >= 3);
  Alcotest.(check int) "no failed CaS" 0 (s1.failed_cas - s0.failed_cas);
  Alcotest.(check int) "no restarts" 0 (s1.restarts - s0.restarts);
  for k = 0 to 49 do
    Alcotest.(check (option int)) "last update wins" (Some (1050 + k))
      (T.find t k)
  done;
  T.verify_invariants t

(* One leaf with a long chain: ascending inserts below [leaf_max] and a
   chain threshold that never fires. *)
let load_chained_leaf ~read_consolidation =
  let obs = Bw_obs.create () in
  let config =
    Bwtree.Config.make ~leaf_chain_max:1_000 ~read_consolidation ()
  in
  let t = T.create ~config ~obs:(Bw_obs.sink obs) () in
  for k = 0 to 99 do
    assert (T.insert t k (k * 3))
  done;
  Alcotest.(check (pair int int)) "loaded chain" (100, 0) (T.max_chains t);
  (t, obs)

(* Reads walk the chain until their budget reaches [leaf_max], then
   rebuild the leaf — only when the policy is on. *)
let chained_leaf ~read_consolidation =
  let t, obs = load_chained_leaf ~read_consolidation in
  for _ = 1 to 10 do
    Alcotest.(check (option int)) "read" (Some 0) (T.find t 0)
  done;
  (t, obs)

let test_read_consolidation_on () =
  let t, obs = chained_leaf ~read_consolidation:true in
  Alcotest.(check (pair int int)) "reads flattened the leaf" (0, 0)
    (T.max_chains t);
  Alcotest.(check int) "one read consolidation" 1
    (T.op_stats t).read_consolidations;
  let sn = Bw_obs.snapshot obs in
  Alcotest.(check int) "obs counter" 1
    (List.assoc Bw_obs.C_read_consolidations sn.Bw_obs.sn_counters);
  for k = 0 to 99 do
    Alcotest.(check (list int)) "contents kept" [ k * 3 ] (T.lookup t k)
  done;
  T.verify_invariants t

let test_read_consolidation_off () =
  let t, _ = chained_leaf ~read_consolidation:false in
  Alcotest.(check (pair int int)) "chain left alone" (100, 0) (T.max_chains t);
  Alcotest.(check int) "no read consolidation" 0
    (T.op_stats t).read_consolidations

(* A scan that meets a chained leaf publishes the merge it pays for, and
   later scans read the installed base zero-copy: a repeat 48-item scan
   allocates only its boxed optionals, epoch closures and per-leaf
   tuple. *)
let test_scan_consolidation_on () =
  let t, obs = load_chained_leaf ~read_consolidation:true in
  let sum = ref 0 in
  let visit _ v = sum := !sum + v in
  Alcotest.(check int) "scan count" 100 (T.scan_iter t 0 visit);
  Alcotest.(check int) "scan sum" (3 * 99 * 100 / 2) !sum;
  Alcotest.(check (pair int int)) "the scan flattened the leaf" (0, 0)
    (T.max_chains t);
  Alcotest.(check int) "one read consolidation" 1
    (T.op_stats t).read_consolidations;
  let sn = Bw_obs.snapshot obs in
  Alcotest.(check int) "obs counter" 1
    (List.assoc Bw_obs.C_read_consolidations sn.Bw_obs.sn_counters);
  ignore (T.scan_iter t ~tid:0 ~n:48 10 visit);
  let w0 = Gc.minor_words () in
  let n = T.scan_iter t ~tid:0 ~n:48 10 visit in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "repeat scan count" 48 n;
  if words > 48.0 then
    Alcotest.failf "repeat 48-item scan allocates %.0f minor words (limit 48)"
      words;
  Alcotest.(check int) "nothing left to rebuild" 1
    (T.op_stats t).read_consolidations;
  Alcotest.(check (list (pair int int))) "contents kept"
    (List.init 100 (fun k -> (k, k * 3)))
    (T.scan t 0);
  T.verify_invariants t

(* With the policy off, scans keep the paper's private copy. *)
let test_scan_consolidation_off () =
  let t, _ = load_chained_leaf ~read_consolidation:false in
  Alcotest.(check (list (pair int int))) "scan"
    (List.init 100 (fun k -> (k, k * 3)))
    (T.scan t 0);
  let it = T.Iterator.seek_first t () in
  Alcotest.(check (option (pair int int))) "iterator" (Some (0, 0))
    (T.Iterator.current it);
  Alcotest.(check (pair int int)) "chain left alone" (100, 0) (T.max_chains t);
  Alcotest.(check int) "no read consolidation" 0
    (T.op_stats t).read_consolidations

(* Read-side consolidation is invisible to readers: the same op trace
   against the policy on and off answers every read identically. Tiny
   nodes keep budgets crossing often, so reads rebuild leaves between
   (and across) splits and merges; bounded scans and iterator walks
   rebuild every chained leaf they visit. *)
let prop_read_consolidation_equivalence ~unique =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "read consolidation on == off (%s keys)"
         (if unique then "unique" else "non-unique"))
    ~count:60
    QCheck.(list_of_size (Gen.int_range 1 600) (pair (int_bound 5) (int_bound 80)))
    (fun ops ->
      let mk read_consolidation =
        T.create
          ~config:
            (Bwtree.Config.make ~base:tiny ~unique_keys:unique
               ~leaf_chain_max:12 ~read_consolidation ())
          ()
      in
      let on = mk true and off = mk false in
      (* duplicates come back in physical order, which consolidation
         changes: compare them as multisets, and [find] by membership *)
      let read t k =
        let vs = List.sort compare (T.lookup t k) in
        match T.find t k with
        | None -> vs = []
        | Some v -> List.mem v vs
      in
      (* a range answer: its keys in order, and its items as a multiset
         — minus the last key's, whose duplicates a bound may cut at a
         different physical position *)
      let range items =
        let keys = List.map fst items in
        let last = List.fold_left (fun _ k -> Some k) None keys in
        ( keys,
          List.sort compare
            (if unique then items
             else List.filter (fun (k, _) -> Some k <> last) items) )
      in
      (* seek, then step both ways across leaf boundaries and the ends *)
      let walk t k =
        let it = T.Iterator.seek t k in
        let seen = ref [ T.Iterator.current it ] in
        List.iter
          (fun fwd ->
            if fwd then T.Iterator.next it else T.Iterator.prev it;
            seen := T.Iterator.current it :: !seen)
          [ true; true; true; false; false; false; false; false; true; true;
            true; true; true; true; true; true; true; true; false ];
        let items = List.rev !seen in
        if unique then items
        else List.map (Option.map (fun (k, _) -> (k, 0))) items
      in
      let apply t (o, k) =
        match o with
        | 0 -> `B (T.insert t k (k + 1))
        | 1 -> `B (T.delete t k (k + 1))
        | 2 when unique -> `B (T.update t k (k + 2))
        (* a non-unique update replaces the first duplicate in physical
           order, which consolidation changes: no sequential model *)
        | 2 -> `B (T.insert t k (k + 2))
        | 3 -> `L (List.sort compare (T.lookup t k), read t k)
        | 4 -> `S (range (T.scan t ~n:(1 + (k mod 17)) k))
        | _ -> `I (walk t k)
      in
      List.for_all (fun op -> apply on op = apply off op) ops
      && List.for_all
           (fun k -> apply on (3, k) = apply off (3, k))
           (List.init 81 Fun.id)
      && (T.verify_invariants on;
          true))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "bwtree"
    [
      ( "basic",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "single key" `Quick test_single_key;
          Alcotest.test_case "extreme keys" `Quick
            test_negative_and_extreme_keys;
          Alcotest.test_case "upsert" `Quick test_upsert;
          Alcotest.test_case "config validation" `Quick test_config_validation;
        ] );
      ( "model",
        List.map
          (fun (name, config) ->
            Alcotest.test_case ("random ops: " ^ name) `Slow (model_ops config))
          all_configs );
      ( "smo",
        [
          Alcotest.test_case "split cascade" `Quick test_split_cascade;
          Alcotest.test_case "merge cascade" `Quick test_merge_cascade;
          Alcotest.test_case "reverse insert" `Quick test_reverse_insert;
        ] );
      ("consolidation", [ q prop_consolidation_equivalence ]);
      ( "non-unique",
        [
          Alcotest.test_case "basic" `Quick test_non_unique_basic;
          Alcotest.test_case "visibility chain" `Quick
            test_non_unique_visibility_chain;
          Alcotest.test_case "model" `Slow test_non_unique_model;
        ] );
      ( "iterator",
        [
          Alcotest.test_case "forward" `Quick test_iterator_forward;
          Alcotest.test_case "backward" `Quick test_iterator_backward;
          Alcotest.test_case "bidirectional" `Quick test_iterator_bidirectional;
          Alcotest.test_case "bounded scan" `Quick test_scan_bounded;
          Alcotest.test_case "leftmost spine after merges" `Quick
            test_leftmost_spine_after_merges;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "freeze equivalence" `Quick test_freeze_equivalence;
          Alcotest.test_case "consolidate_all" `Quick
            test_consolidate_all_flattens;
          Alcotest.test_case "in-place updates" `Quick test_inplace_leaf_updates;
          Alcotest.test_case "no-cas config" `Quick test_no_cas_config;
        ] );
      ( "introspection",
        [
          Alcotest.test_case "stats" `Quick test_stats_sanity;
          Alcotest.test_case "memory footprint" `Quick test_memory_footprint;
          Alcotest.test_case "cursor padding" `Quick test_cursor_padding;
          Alcotest.test_case "slab update allocation" `Quick
            test_slab_update_allocation;
          Alcotest.test_case "gc integration" `Quick test_gc_integration;
        ] );
      ("strings", [ Alcotest.test_case "email keys" `Quick test_string_keys ]);
      ( "boundaries",
        [
          Alcotest.test_case "iterator on empty tree" `Quick
            test_iterator_empty_tree;
          Alcotest.test_case "iterator reverses at ends" `Quick
            test_iterator_reverses_at_ends;
          Alcotest.test_case "scan bounds" `Quick
            test_scan_zero_and_negative_bounds;
          Alcotest.test_case "update size accounting" `Quick
            test_update_preserves_size_accounting;
        ] );
      ( "read path",
        [
          Alcotest.test_case "finished split: no help, cache serves" `Quick
            test_finished_split_reads;
          Alcotest.test_case "find allocates only its Some" `Quick
            test_find_allocation;
          Alcotest.test_case "appending update allocates <= 24 words" `Quick
            test_update_allocation;
          Alcotest.test_case "batched get allocates <= 8 words per op" `Quick
            test_batch_get_allocation;
          Alcotest.test_case "smaller batches reuse the permutation row"
            `Quick test_batch_perm_row_reused;
          Alcotest.test_case "batch continues on its own consolidations"
            `Quick test_batch_own_consolidations;
          Alcotest.test_case "reads consolidate a chained leaf" `Quick
            test_read_consolidation_on;
          Alcotest.test_case "policy off leaves chains" `Quick
            test_read_consolidation_off;
          q (prop_read_consolidation_equivalence ~unique:true);
          q (prop_read_consolidation_equivalence ~unique:false);
          Alcotest.test_case "scans consolidate a chained leaf" `Quick
            test_scan_consolidation_on;
          Alcotest.test_case "policy off: scans leave chains" `Quick
            test_scan_consolidation_off;
        ] );
      ( "debugging",
        [
          Alcotest.test_case "dump renders" `Quick test_dump_renders;
          Alcotest.test_case "counters wiring" `Quick test_counters_wiring;
          Alcotest.test_case "iter_nodes" `Quick test_iter_nodes_consistent;
          Alcotest.test_case "stats need a registry" `Quick
            test_stats_need_registry;
        ] );
    ]
