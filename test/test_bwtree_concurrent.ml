(* Concurrency tests for the Bw-Tree: disjoint and contended multi-domain
   workloads, SMO interleavings under tiny nodes, the high-contention
   right-edge storm, and linearizability-ish spot checks. *)

module IK = Index_iface.Int_key
module IV = Index_iface.Int_value
module T = Bwtree.Make (IK) (IV)

let tiny =
  Bwtree.Config.make ~leaf_max:8 ~inner_max:6 ~leaf_chain_max:4
    ~inner_chain_max:2 ~leaf_min:2 ~inner_min:2 ()

(* a tree counting into its own registry, for tests that read its stats *)
let counted ?config () =
  T.create ?config ~obs:(Bw_obs.sink (Bw_obs.create ())) ()

let spawn_workers n f =
  let domains = Array.init n (fun tid -> Domain.spawn (fun () -> f tid)) in
  Array.iter Domain.join domains

let test_disjoint_inserts () =
  let nthreads = 6 and per = 8_000 in
  let t = T.create () in
  spawn_workers nthreads (fun tid ->
      for i = 0 to per - 1 do
        let k = (i * nthreads) + tid in
        assert (T.insert t ~tid k (k * 2))
      done;
      T.quiesce t ~tid);
  T.verify_invariants t;
  Alcotest.(check int) "all present" (nthreads * per) (T.cardinal t);
  for k = 0 to (nthreads * per) - 1 do
    assert (T.lookup t k = [ k * 2 ])
  done

let test_contended_same_keys () =
  (* all threads try to insert the same keys; exactly one wins each *)
  let nthreads = 6 and nkeys = 3_000 in
  let t = T.create ~config:tiny () in
  let wins = Array.init nthreads (fun _ -> Atomic.make 0) in
  spawn_workers nthreads (fun tid ->
      for k = 0 to nkeys - 1 do
        if T.insert t ~tid k tid then
          ignore (Atomic.fetch_and_add wins.(tid) 1)
      done;
      T.quiesce t ~tid);
  let total = Array.fold_left (fun acc w -> acc + Atomic.get w) 0 wins in
  Alcotest.(check int) "each key inserted exactly once" nkeys total;
  T.verify_invariants t;
  Alcotest.(check int) "cardinal" nkeys (T.cardinal t)

let test_mixed_workload () =
  let nthreads = 6 and per = 10_000 in
  let t = T.create ~config:tiny () in
  T.start_gc_thread t ~interval_s:0.002 ();
  spawn_workers nthreads (fun tid ->
      let rng = Bw_util.Rng.create ~seed:(Int64.of_int (tid + 77)) in
      for _ = 1 to per do
        let k = Bw_util.Rng.next_int rng 2_000 in
        match Bw_util.Rng.next_int rng 4 with
        | 0 -> ignore (T.insert t ~tid k k)
        | 1 -> ignore (T.delete t ~tid k k)
        | 2 -> ignore (T.update t ~tid k (k + 1))
        | _ -> ignore (T.lookup t ~tid k)
      done;
      T.quiesce t ~tid);
  T.stop_gc_thread t;
  T.verify_invariants t;
  (* values must be one of the two writable values for their key *)
  List.iter
    (fun (k, v) ->
      Alcotest.(check bool) "value provenance" true (v = k || v = k + 1))
    (T.scan_all t ())

let test_concurrent_split_merge_storm () =
  (* insert/delete waves over a small key range with tiny nodes: constant
     splits and merges interleaving across threads *)
  let nthreads = 4 and rounds = 6 in
  let t = counted ~config:tiny () in
  for round = 1 to rounds do
    spawn_workers nthreads (fun tid ->
        let lo = tid * 500 in
        if round mod 2 = 1 then
          for k = lo to lo + 499 do
            ignore (T.insert t ~tid k k)
          done
        else
          for k = lo to lo + 499 do
            ignore (T.delete t ~tid k k)
          done;
        T.quiesce t ~tid);
    T.verify_invariants t
  done;
  Alcotest.(check int) "even rounds end empty" 0 (T.cardinal t);
  let os = T.op_stats t in
  Alcotest.(check bool) "merges exercised" true (os.merges > 0);
  Alcotest.(check bool) "splits exercised" true (os.splits > 0)

let test_high_contention_right_edge () =
  (* §6.2: every thread appends at the index's right edge *)
  let nthreads = 8 in
  let t = counted ~config:tiny () in
  let hc = Workload.Hc.create ~nthreads in
  let per = 4_000 in
  spawn_workers nthreads (fun tid ->
      for _ = 1 to per do
        let k = Workload.Hc.next hc ~tid in
        assert (T.insert t ~tid k tid)
      done;
      T.quiesce t ~tid);
  T.verify_invariants t;
  Alcotest.(check int) "no lost inserts" (nthreads * per) (T.cardinal t);
  let os = T.op_stats t in
  Alcotest.(check bool) "contention observed (failed CaS)" true
    (os.failed_cas > 0)

let test_readers_never_block () =
  (* readers run against a continuously-mutating tree and always see a
     value written by some writer for that key *)
  let t = T.create ~config:tiny () in
  for k = 0 to 999 do
    assert (T.insert t k 0)
  done;
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let rng = Bw_util.Rng.create ~seed:123L in
        while not (Atomic.get stop) do
          let k = Bw_util.Rng.next_int rng 1_000 in
          ignore (T.update t ~tid:0 k (Bw_util.Rng.next_int rng 1_000_000))
        done;
        T.quiesce t ~tid:0)
  in
  let ok = ref true in
  spawn_workers 3 (fun w ->
      let tid = w + 1 in
      let rng = Bw_util.Rng.create ~seed:(Int64.of_int (555 + tid)) in
      for _ = 1 to 20_000 do
        let k = Bw_util.Rng.next_int rng 1_000 in
        match T.lookup t ~tid k with
        | [ _ ] -> ()
        | _ -> ok := false
      done;
      T.quiesce t ~tid);
  Atomic.set stop true;
  Domain.join writer;
  Alcotest.(check bool) "every read observed exactly one value" true !ok;
  T.verify_invariants t

(* Scans run while a writer churns odd keys (tiny nodes: appends,
   splits, merges and consolidations) over an even preload that never
   changes. Every scan must return each preloaded key between its start
   and its last returned key exactly once, in order, with its value —
   and scans themselves install consolidations of the chained leaves
   they visit, racing the writer's appends and splits. *)
let test_concurrent_iteration () =
  let t = counted ~config:tiny () in
  let preload = List.init 500 (fun k -> k * 4) in
  List.iter (fun k -> assert (T.insert t k (k / 4))) preload;
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let rng = Bw_util.Rng.create ~seed:321L in
        while not (Atomic.get stop) do
          let k = (2 * Bw_util.Rng.next_int rng 1_000) + 1 in
          ignore (T.insert t ~tid:0 k k);
          ignore (T.delete t ~tid:0 k k)
        done;
        T.quiesce t ~tid:0)
  in
  let failure = Atomic.make None in
  let fail msg = ignore (Atomic.compare_and_set failure None (Some msg)) in
  spawn_workers 2 (fun w ->
      let tid = w + 1 in
      for i = 0 to 4_999 do
        let start = i * 6 mod 1_000 in
        let items = T.scan t ~tid ~n:40 start in
        let keys = List.map fst items in
        let rec ascending = function
          | a :: (b :: _ as rest) -> a < b && ascending rest
          | _ -> true
        in
        if not (ascending keys) then fail (Printf.sprintf "scan %d unsorted" start);
        List.iter
          (fun (k, v) ->
            if k < start then fail (Printf.sprintf "scan %d returned %d" start k)
            else if k mod 2 = 1 then (
              if v <> k then fail (Printf.sprintf "odd key %d = %d" k v))
            else if k mod 4 <> 0 || v <> k / 4 then
              fail (Printf.sprintf "even key %d = %d" k v))
          items;
        let last =
          if List.length items < 40 then max_int
          else List.fold_left (fun _ k -> k) start keys
        in
        let expect = List.filter (fun k -> k >= start && k <= last) preload in
        if List.filter (fun k -> k mod 2 = 0) keys <> expect then
          fail (Printf.sprintf "scan %d: preload not seen exactly once" start)
      done;
      T.quiesce t ~tid);
  Atomic.set stop true;
  Domain.join writer;
  Alcotest.(check (option string)) "scans exactly-once" None
    (Atomic.get failure);
  Alcotest.(check bool) "scans consolidated leaves" true
    ((T.op_stats t).read_consolidations > 0);
  T.verify_invariants t

let test_gc_schemes_under_concurrency () =
  List.iter
    (fun scheme ->
      let t = T.create ~config:{ tiny with gc_scheme = scheme } () in
      T.start_gc_thread t ~interval_s:0.002 ();
      spawn_workers 4 (fun tid ->
          for i = 0 to 4_999 do
            let k = (i * 4) + tid in
            assert (T.insert t ~tid k k)
          done;
          T.quiesce t ~tid);
      T.stop_gc_thread t;
      T.verify_invariants t;
      Alcotest.(check int) "complete" 20_000 (T.cardinal t);
      Epoch.flush (T.epoch t);
      Alcotest.(check int) "drained" 0 (Epoch.pending (T.epoch t)))
    [ Epoch.Centralized; Epoch.Decentralized ]

(* [Domain.join d], failing instead of hanging if [d] has not terminated
   within [seconds]. *)
let join_within ~seconds d =
  let joined = Atomic.make None in
  let joiner =
    Thread.create (fun () -> Atomic.set joined (Some (Domain.join d))) ()
  in
  let deadline = Unix.gettimeofday () +. seconds in
  let rec wait () =
    match Atomic.get joined with
    | Some v ->
        Thread.join joiner;
        v
    | None ->
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "domain not joined within %.0f s" seconds;
        Unix.sleepf 0.01;
        wait ()
  in
  wait ()

(* The lifetime rule of [start_gc_thread]: a domain that starts a tree's
   advancer and stops it before returning can be joined. The advancer
   ran on that domain, not on one of its own. *)
let test_advancer_in_spawned_domain () =
  List.iter
    (fun scheme ->
      let d =
        Domain.spawn (fun () ->
            let t = T.create ~config:{ tiny with gc_scheme = scheme } () in
            T.start_gc_thread t ~interval_s:0.002 ();
            for k = 0 to 999 do
              assert (T.insert t ~tid:0 k k)
            done;
            T.quiesce t ~tid:0;
            Unix.sleepf 0.02;
            T.stop_gc_thread t;
            ( (Domain.self () :> int),
              Epoch.background_domain (T.epoch t),
              T.cardinal t ))
      in
      let self, advancer, n = join_within ~seconds:10. d in
      Alcotest.(check (option int)) "advancer on the spawned domain"
        (Some self) advancer;
      Alcotest.(check int) "complete" 1000 n)
    [ Epoch.Centralized; Epoch.Decentralized ]

(* Two domains appending to one leaf, so their §4.1 slot claims race:
   every acknowledged write is visible afterwards, and with
   pre-allocation every failed delta CaS wasted exactly one slot of the
   leaf's slab. The chain threshold is high enough that nothing
   consolidates, so the slab outlives the race, and it exists before the
   race starts (a first append that loses its CaS drops its fresh slab
   rather than wasting a slot). Without pre-allocation there is no slab
   and nothing is wasted. *)
let test_slab_race () =
  let per = 100 in
  List.iter
    (fun preallocate ->
      let config =
        Bwtree.Config.make ~leaf_max:1_000 ~leaf_min:1 ~leaf_chain_max:1_000
          ~read_consolidation:false ~preallocate ()
      in
      let t = counted ~config () in
      for k = 0 to 63 do
        assert (T.insert t k k)
      done;
      T.consolidate_all t;
      assert (T.update t 0 0);
      let expect = Array.init 64 (fun k -> k) in
      expect.(0) <- 0;
      for tid = 0 to 1 do
        for i = 1 to per do
          expect.(((2 * i) + tid) mod 64) <- (tid * 10_000) + i
        done
      done;
      let ready = Atomic.make 0 in
      spawn_workers 2 (fun tid ->
          Atomic.incr ready;
          while Atomic.get ready < 2 do
            Domain.cpu_relax ()
          done;
          for i = 1 to per do
            assert (T.insert t ~tid (1000 + (2 * i) + tid) i);
            assert (T.update t ~tid (((2 * i) + tid) mod 64) ((tid * 10_000) + i))
          done;
          T.quiesce t ~tid);
      let ss = T.structure_stats t and st = T.op_stats t in
      Alcotest.(check int) "one leaf" 1 ss.leaf_nodes;
      Alcotest.(check int) "wasted slots = failed delta CaS"
        (if preallocate then st.failed_cas else 0)
        ss.leaf_slots_wasted;
      T.verify_invariants t;
      for tid = 0 to 1 do
        for i = 1 to per do
          Alcotest.(check (option int)) "acknowledged insert" (Some i)
            (T.find t (1000 + (2 * i) + tid))
        done
      done;
      Array.iteri
        (fun k v -> Alcotest.(check (option int)) "acknowledged update" (Some v) (T.find t k))
        expect)
    [ true; false ]

let () =
  Alcotest.run "bwtree-concurrent"
    [
      ( "inserts",
        [
          Alcotest.test_case "disjoint" `Slow test_disjoint_inserts;
          Alcotest.test_case "contended same keys" `Slow
            test_contended_same_keys;
        ] );
      ( "mixed",
        [
          Alcotest.test_case "mixed workload" `Slow test_mixed_workload;
          Alcotest.test_case "split/merge storm" `Slow
            test_concurrent_split_merge_storm;
        ] );
      ( "contention",
        [
          Alcotest.test_case "slab slot race" `Quick test_slab_race;
          Alcotest.test_case "advancer stopped in its domain joins" `Quick
            test_advancer_in_spawned_domain;
          Alcotest.test_case "right-edge storm" `Slow
            test_high_contention_right_edge;
        ] );
      ( "readers",
        [
          Alcotest.test_case "readers never block" `Slow
            test_readers_never_block;
          Alcotest.test_case "concurrent iteration" `Slow
            test_concurrent_iteration;
        ] );
      ( "gc",
        [
          Alcotest.test_case "both schemes" `Slow
            test_gc_schemes_under_concurrency;
        ] );
    ]
