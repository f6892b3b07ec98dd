(* Leaf-cache correctness: cached and uncached drivers must be
   observationally identical on single trees and on a range-partitioned
   forest (point ops, batches, merge-triggering deletes); the
   stamp/verify protocol must reject entries invalidated by a forced
   split; and [Runner.instrument] must be idempotent. *)

module D = Harness.Drivers
module Runner = Harness.Runner
module T = D.Bw_int

(* tiny nodes + a 16-slot cache: every run forces splits, merges,
   consolidations, bucket collisions and evictions *)
(* a tree counting into its own registry, for tests that read its stats *)
let counted ?config () =
  T.create ?config ~obs:(Bw_obs.sink (Bw_obs.create ())) ()

let config ~leaf_cache =
  Bwtree.Config.make ~leaf_max:8 ~inner_max:6 ~leaf_chain_max:4
    ~inner_chain_max:2 ~leaf_min:2 ~inner_min:2 ~leaf_cache
    ~leaf_cache_bits:4 ()

(* --- op sequences ----------------------------------------------------- *)

type op = Ins of int | Del of int | Upd of int | Get of int

let gen_ops =
  QCheck.(
    list_of_size
      (Gen.int_range 1 400)
      (map
         (fun (o, k) ->
           match o with
           | 0 -> Ins k
           | 1 -> Del k
           | 2 -> Upd k
           | _ -> Get k)
         (pair (int_bound 3) (int_bound 60))))

let apply (d : int Runner.driver) op =
  match op with
  | Ins k -> `B (d.Runner.insert ~tid:0 k (k + 1000))
  | Del k -> `B (d.Runner.remove ~tid:0 k)
  | Upd k -> `B (d.Runner.update ~tid:0 k (k + 2000))
  | Get k -> `V (d.Runner.read ~tid:0 k)

let sweep (d : int Runner.driver) =
  List.init 61 (fun k -> d.Runner.read ~tid:0 k)

(* run the same trace against both drivers; every op result and a final
   full sweep must agree *)
let equivalent mk ops =
  let cached = mk ~leaf_cache:true and plain = mk ~leaf_cache:false in
  List.for_all (fun op -> apply cached op = apply plain op) ops
  && sweep cached = sweep plain

let prop_point_equivalence =
  QCheck.Test.make ~name:"cached == uncached (single tree, point ops)"
    ~count:80 gen_ops
    (equivalent (fun ~leaf_cache ->
         D.Int.bwtree ~config:(config ~leaf_cache) ()))

let prop_forest_equivalence =
  QCheck.Test.make ~name:"cached == uncached (3-shard forest, point ops)"
    ~count:40 gen_ops
    (equivalent (fun ~leaf_cache ->
         D.Int.forest ~config:(config ~leaf_cache) ~lo:0 ~hi:61
           ~shards:3 ()))

(* batches: chunk the trace into groups of 8 and run them through the
   driver's native batch path (upserts included via update-then-insert
   semantics of the point fallback is avoided — both sides use their own
   batch implementation) *)
let batch_of = function
  | Ins k -> Index_iface.Bop_insert (k, k + 1000)
  | Del k -> Index_iface.Bop_remove k
  | Upd k -> Index_iface.Bop_update (k, k + 2000)
  | Get k -> Index_iface.Bop_read k

let rec chunks n = function
  | [] -> []
  | ops ->
      let rec take i acc = function
        | x :: tl when i < n -> take (i + 1) (x :: acc) tl
        | rest -> (List.rev acc, rest)
      in
      let c, rest = take 0 [] ops in
      c :: chunks n rest

let equivalent_batched mk ops =
  let cached = mk ~leaf_cache:true and plain = mk ~leaf_cache:false in
  let run d c =
    let b = Array.of_list (List.map batch_of c) in
    Array.to_list (Index_iface.exec_batch d ~tid:0 b)
  in
  List.for_all (fun c -> run cached c = run plain c) (chunks 8 ops)
  && sweep cached = sweep plain

let prop_batch_equivalence =
  QCheck.Test.make ~name:"cached == uncached (single tree, batch 8)"
    ~count:80 gen_ops
    (equivalent_batched (fun ~leaf_cache ->
         D.Int.bwtree ~config:(config ~leaf_cache) ()))

let prop_forest_batch_equivalence =
  QCheck.Test.make ~name:"cached == uncached (3-shard forest, batch 8)"
    ~count:40 gen_ops
    (equivalent_batched (fun ~leaf_cache ->
         D.Int.forest ~config:(config ~leaf_cache) ~lo:0 ~hi:61
           ~shards:3 ()))

(* --- stamp validation across a forced split --------------------------- *)

(* Warm the cache on a handful of keys, then grow the tree until the
   SMO epoch moves (splits). Probing afterwards must never serve a
   wrong leaf: every lookup still agrees with the model, the harness
   oracle confirms surviving entries, and the counter accounting of the
   protocol holds (a failed re-validation is always an invalidation). *)
let test_stamp_rejects_across_split () =
  let t = counted ~config:(config ~leaf_cache:true) () in
  for k = 0 to 7 do
    assert (T.insert t k k)
  done;
  for k = 0 to 7 do
    assert (T.lookup t k = [ k ]) (* fills cache entries *)
  done;
  let s0 = T.leaf_cache_stats t in
  Alcotest.(check bool) "cache warmed" true (s0.Bwtree.lc_hits >= 0);
  (* force splits: the 8-key leaves overflow many times over *)
  for k = 8 to 1_000 do
    assert (T.insert t k k)
  done;
  let s1 = T.leaf_cache_stats t in
  Alcotest.(check bool) "splits happened" true (s1.Bwtree.lc_smo_events > 0);
  for k = 0 to 1_000 do
    Alcotest.(check (list int))
      (Printf.sprintf "lookup %d after splits" k)
      [ k ] (T.lookup t k)
  done;
  for k = 0 to 1_000 do
    Alcotest.(check bool)
      (Printf.sprintf "oracle agrees at %d" k)
      true
      (T.leaf_cache_check t ~tid:0 k)
  done;
  let s2 = T.leaf_cache_stats t in
  Alcotest.(check bool) "hits recorded" true (s2.Bwtree.lc_hits > 0);
  Alcotest.(check bool) "stale <= invalidations + smo" true
    (s2.Bwtree.lc_stale_verifies
    <= s2.Bwtree.lc_invalidations + s2.Bwtree.lc_smo_events);
  Alcotest.(check bool) "occupancy within slots" true
    (s2.Bwtree.lc_occupied >= 0 && s2.Bwtree.lc_occupied <= s2.Bwtree.lc_slots)

(* the escape hatch: a disabled cache allocates no slots, counts
   nothing, and the probe path stays inert *)
let test_escape_hatch () =
  let t = counted ~config:(config ~leaf_cache:false) () in
  for k = 0 to 200 do
    assert (T.insert t k k)
  done;
  for k = 0 to 200 do
    assert (T.lookup t k = [ k ])
  done;
  let s = T.leaf_cache_stats t in
  Alcotest.(check int) "no slots" 0 s.Bwtree.lc_slots;
  Alcotest.(check int) "no hits" 0 s.Bwtree.lc_hits;
  Alcotest.(check int) "no misses" 0 s.Bwtree.lc_misses;
  Alcotest.(check bool) "oracle trivially true" true
    (T.leaf_cache_check t ~tid:0 7)

(* --- Runner.instrument idempotency ------------------------------------ *)

let test_instrument_idempotent () =
  let reg = Bw_obs.create () in
  let s = Bw_obs.sink reg in
  let d = D.Int.btree () in
  Alcotest.(check bool) "null sink is identity" true
    (Runner.instrument Bw_obs.Null d == d);
  let w = Runner.instrument s d in
  Alcotest.(check bool) "live sink wraps" true (w != d);
  Alcotest.(check bool) "re-instrumenting a wrapper is identity" true
    (Runner.instrument s w == w);
  Alcotest.(check bool) "wrapper still wraps the original" true
    (Runner.instrument s d != d);
  (* the wrapper must still work after the registry bookkeeping *)
  assert (w.Runner.insert ~tid:0 1 10);
  Alcotest.(check (option int)) "read through wrapper" (Some 10)
    (w.Runner.read ~tid:0 1)

let () =
  Alcotest.run "leaf_cache"
    [
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest prop_point_equivalence;
          QCheck_alcotest.to_alcotest prop_forest_equivalence;
          QCheck_alcotest.to_alcotest prop_batch_equivalence;
          QCheck_alcotest.to_alcotest prop_forest_batch_equivalence;
        ] );
      ( "stamp",
        [
          Alcotest.test_case "rejects across forced split" `Quick
            test_stamp_rejects_across_split;
          Alcotest.test_case "escape hatch" `Quick test_escape_hatch;
        ] );
      ( "instrument",
        [
          Alcotest.test_case "idempotent" `Quick test_instrument_idempotent;
        ] );
    ]
