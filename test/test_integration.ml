(* Cross-index integration tests: all six indexes driven through the
   uniform driver interface agree with each other and with a model on the
   same operation sequences, and the harness plumbing (load/run phases,
   barrier, memory measurement) behaves. *)

open Harness
module W = Workload

let drivers () : (string * int Runner.driver) list =
  List.map (fun (name, mk) -> (name, mk ())) (Drivers.Int.lineup ())

let str_drivers () : (string * string Runner.driver) list =
  List.map (fun (name, mk) -> (name, mk ())) (Drivers.Str.lineup ())

(* replay the same random op sequence on every index and on a model;
   verify identical observable results *)
let test_cross_index_agreement () =
  let ds = drivers () in
  List.iter (fun (_, d) -> d.Runner.start_aux ()) ds;
  let module IntMap = Map.Make (Int) in
  let model = ref IntMap.empty in
  let rng = Bw_util.Rng.create ~seed:2024L in
  for _ = 1 to 8_000 do
    let k = Bw_util.Rng.next_int rng 1_000 in
    match Bw_util.Rng.next_int rng 4 with
    | 0 ->
        let expected = not (IntMap.mem k !model) in
        if expected then model := IntMap.add k (k * 2) !model;
        List.iter
          (fun (name, d) ->
            Alcotest.(check bool)
              (name ^ " insert") expected
              (d.Runner.insert ~tid:0 k (k * 2)))
          ds
    | 1 ->
        let expected = IntMap.mem k !model in
        model := IntMap.remove k !model;
        List.iter
          (fun (name, d) ->
            Alcotest.(check bool)
              (name ^ " remove") expected
              (d.Runner.remove ~tid:0 k))
          ds
    | 2 ->
        let v = Bw_util.Rng.next_int rng 1_000_000 in
        let expected = IntMap.mem k !model in
        if expected then model := IntMap.add k v !model;
        List.iter
          (fun (name, d) ->
            Alcotest.(check bool)
              (name ^ " update") expected
              (d.Runner.update ~tid:0 k v))
          ds
    | _ ->
        let expected = IntMap.find_opt k !model in
        List.iter
          (fun (name, d) ->
            Alcotest.(check (option int))
              (name ^ " read") expected
              (d.Runner.read ~tid:0 k))
          ds
  done;
  List.iter (fun (_, d) -> d.Runner.stop_aux ()) ds

let test_scan_agreement () =
  let ds = drivers () in
  List.iter (fun (_, d) -> d.Runner.start_aux ()) ds;
  List.iter
    (fun (_, d) ->
      for k = 0 to 2_000 do
        ignore (d.Runner.insert ~tid:0 (k * 3) k)
      done)
    ds;
  (* give the skip list's maintenance thread a beat *)
  Unix.sleepf 0.05;
  List.iter
    (fun start ->
      let counts =
        List.map
          (fun (name, d) -> (name, d.Runner.scan ~tid:0 start ~n:50 (fun _ _ -> ())))
          ds
      in
      let _, first = List.hd counts in
      List.iter
        (fun (name, c) ->
          Alcotest.(check int) (Printf.sprintf "%s scan@%d" name start) first c)
        counts)
    [ 0; 1; 2_999; 5_998; 6_001; 999_999 ];
  List.iter (fun (_, d) -> d.Runner.stop_aux ()) ds

let test_string_cross_index () =
  let ds = str_drivers () in
  List.iter (fun (_, d) -> d.Runner.start_aux ()) ds;
  let keys = Array.init 3_000 W.email_key_of in
  Array.iteri
    (fun i k ->
      List.iter
        (fun (name, d) ->
          Alcotest.(check bool) (name ^ " str insert") true
            (d.Runner.insert ~tid:0 k i))
        ds)
    keys;
  Array.iteri
    (fun i k ->
      List.iter
        (fun (name, d) ->
          Alcotest.(check (option int)) (name ^ " str read") (Some i)
            (d.Runner.read ~tid:0 k))
        ds)
    keys;
  List.iter (fun (_, d) -> d.Runner.stop_aux ()) ds

(* visitor-based scan early termination: the count cap must be honoured
   exactly at the edges on every index — n=0 visits nothing, n=1 stops
   after the first item, an empty tree and a start key past the maximum
   both visit nothing *)
let test_scan_early_termination () =
  (* empty trees first: no visits regardless of n *)
  let empty = drivers () in
  List.iter (fun (_, d) -> d.Runner.start_aux ()) empty;
  List.iter
    (fun (name, d) ->
      List.iter
        (fun n ->
          let visited = ref 0 in
          let c = d.Runner.scan ~tid:0 0 ~n (fun _ _ -> incr visited) in
          Alcotest.(check int) (Printf.sprintf "%s empty n=%d count" name n) 0 c;
          Alcotest.(check int) (Printf.sprintf "%s empty n=%d visits" name n) 0
            !visited)
        [ 0; 1; 50 ])
    empty;
  List.iter (fun (_, d) -> d.Runner.stop_aux ()) empty;
  (* populated trees: keys 0,10,20,...,990 with value = key * 7 *)
  let ds = drivers () in
  List.iter (fun (_, d) -> d.Runner.start_aux ()) ds;
  List.iter
    (fun (_, d) ->
      for i = 0 to 99 do
        ignore (d.Runner.insert ~tid:0 (i * 10) (i * 70))
      done)
    ds;
  Unix.sleepf 0.05;
  List.iter
    (fun (name, d) ->
      (* n=0: the visitor must never fire, even with matching items *)
      let visited = ref 0 in
      let c = d.Runner.scan ~tid:0 0 ~n:0 (fun _ _ -> incr visited) in
      Alcotest.(check int) (name ^ " n=0 count") 0 c;
      Alcotest.(check int) (name ^ " n=0 visits") 0 !visited;
      (* n=1: exactly the first item >= start, then stop *)
      let got = ref [] in
      let c = d.Runner.scan ~tid:0 15 ~n:1 (fun k v -> got := (k, v) :: !got) in
      Alcotest.(check int) (name ^ " n=1 count") 1 c;
      Alcotest.(check (list (pair int int))) (name ^ " n=1 item") [ (20, 140) ]
        !got;
      (* start exactly on an existing key is inclusive *)
      let got = ref [] in
      let c = d.Runner.scan ~tid:0 20 ~n:1 (fun k v -> got := (k, v) :: !got) in
      Alcotest.(check int) (name ^ " inclusive count") 1 c;
      Alcotest.(check (list (pair int int)))
        (name ^ " inclusive item") [ (20, 140) ] !got;
      (* cap larger than remaining items: visits exactly the tail *)
      let visited = ref 0 in
      let c = d.Runner.scan ~tid:0 981 ~n:50 (fun _ _ -> incr visited) in
      Alcotest.(check int) (name ^ " tail count") 1 c;
      Alcotest.(check int) (name ^ " tail visits") 1 !visited;
      (* start past the maximum key: nothing to visit *)
      let visited = ref 0 in
      let c = d.Runner.scan ~tid:0 991 ~n:10 (fun _ _ -> incr visited) in
      Alcotest.(check int) (name ^ " past-max count") 0 c;
      Alcotest.(check int) (name ^ " past-max visits") 0 !visited)
    ds;
  List.iter (fun (_, d) -> d.Runner.stop_aux ()) ds

(* the harness load/run plumbing produces sensible results *)
let test_harness_phases () =
  let cfg = { W.default_config with num_keys = 5_000; num_ops = 10_000 } in
  let d = Drivers.Int.bwtree () in
  let trace = W.load_trace cfg W.Rand_int (W.int_key_of W.Rand_int) in
  let load = Runner.load d ~nthreads:4 trace in
  Alcotest.(check int) "load ops" 5_000 load.ops;
  Alcotest.(check bool) "load time positive" true (load.seconds > 0.0);
  let traces =
    Array.init 4 (fun tid ->
        W.ops_trace cfg W.Rand_int W.Read_update ~tid ~nthreads:4
          (W.int_key_of W.Rand_int))
  in
  let run = Runner.run d traces in
  Alcotest.(check int) "run ops" 10_000 run.ops;
  Alcotest.(check bool) "throughput positive" true (run.mops > 0.0);
  d.Runner.stop_aux ();
  Alcotest.(check bool) "memory measured" true (d.Runner.memory_words () > 10_000)

let test_harness_hc_and_all_mixes () =
  (* every mix runs end-to-end through the harness on every index without
     error (smoke-level, small sizes) *)
  let cfg = { W.default_config with num_keys = 2_000; num_ops = 4_000 } in
  List.iter
    (fun (name, mk) ->
      List.iter
        (fun mix ->
          let d = mk () in
          let trace = W.load_trace cfg W.Rand_int (W.int_key_of W.Rand_int) in
          ignore (Runner.load d ~nthreads:2 trace);
          (match mix with
          | W.Insert_only -> ()
          | _ ->
              let traces =
                Array.init 2 (fun tid ->
                    W.ops_trace cfg W.Rand_int mix ~tid ~nthreads:2
                      (W.int_key_of W.Rand_int))
              in
              let r = Runner.run d traces in
              Alcotest.(check bool)
                (Printf.sprintf "%s ran" name)
                true (r.ops > 0));
          d.Runner.stop_aux ())
        [ W.Insert_only; W.Read_only; W.Read_update; W.Scan_insert ])
    (Drivers.Int.lineup ())

(* Table 3 pinned: each index counts its events into its own registry,
   so a one-thread load of a fixed trace counts the same every time —
   except in the skip list, whose index levels a background domain
   rebuilds on its own schedule — and the orderings the paper explains
   its comparison by hold. *)
let test_table3 () =
  let table3 =
    Bw_obs.
      [
        C_ptr_derefs; C_key_compares; C_allocations; C_cas_attempts;
        C_cas_failures; C_restarts; C_node_visits; C_epoch_enters;
      ]
  in
  let cfg = { W.default_config with num_keys = 20_000; seed = 7L } in
  let trace = W.load_trace cfg W.Rand_int (W.int_key_of W.Rand_int) in
  let run name =
    let reg = Bw_obs.create () in
    let d =
      List.assoc name (Drivers.Int.lineup ~obs:(Bw_obs.sink reg) ()) ()
    in
    let res = Runner.load d ~nthreads:1 trace in
    d.Runner.stop_aux ();
    Alcotest.(check int) (name ^ " loaded") cfg.num_keys res.Runner.ops;
    List.map (Bw_obs.count reg) table3
  in
  let names = List.map fst (Drivers.Int.lineup ()) in
  let counts = List.map (fun name -> (name, run name)) names in
  List.iter
    (fun (name, c) ->
      if name <> "SkipList" then
        Alcotest.(check (list int)) (name ^ " deterministic") c (run name))
    counts;
  (* per-insert rates: every run loaded the same number of keys *)
  let nth i name = List.nth (List.assoc name counts) i in
  let derefs = nth 0 and cas = nth 3 in
  let others name = List.filter (( <> ) name) names in
  List.iter
    (fun other ->
      Alcotest.(check bool)
        ("SkipList derefs more than " ^ other)
        true
        (derefs "SkipList" > derefs other);
      Alcotest.(check bool)
        ("B+Tree derefs less than " ^ other)
        true
        (derefs "B+Tree" < derefs other))
    (others "SkipList" |> List.filter (( <> ) "B+Tree"));
  List.iter
    (fun bw ->
      List.iter
        (fun other ->
          Alcotest.(check bool)
            (Printf.sprintf "%s CaS more than %s" bw other)
            true
            (cas bw > cas other))
        (List.filter (fun n -> n <> "Bw-Tree" && n <> "OpenBw-Tree") names))
    [ "Bw-Tree"; "OpenBw-Tree" ]

let test_barrier () =
  let b = Runner.Barrier.create 4 in
  let released = Atomic.make 0 in
  let domains =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            Runner.Barrier.arrive b;
            ignore (Atomic.fetch_and_add released 1)))
  in
  Array.iter Domain.join domains;
  Alcotest.(check int) "all released" 4 (Atomic.get released)

(* Both key types build the skip list with the requested tower policy
   and name it after that policy: the string instance once built the
   Background list whatever was asked, under the plain name. *)
let test_skiplist_policy () =
  List.iter
    (fun key_type ->
      let module D = (val Drivers.of_key_type key_type) in
      Alcotest.(check string)
        (key_type ^ " default policy")
        "SkipList" (D.skiplist ()).name;
      Alcotest.(check string)
        (key_type ^ " inline policy")
        "SkipList-inline"
        (D.skiplist ~policy:Skiplist.Inline ()).name)
    [ "int"; "str" ]

(* [Runner.instrument] leaves a driver alone on the null sink and wraps
   it on a live one; the wrapper answers like the driver it wraps. *)
let test_instrument_idempotent () =
  let reg = Bw_obs.create () in
  let s = Bw_obs.sink reg in
  let d = Drivers.Int.btree () in
  Alcotest.(check bool) "null sink is identity" true
    (Runner.instrument Bw_obs.Null d == d);
  let w = Runner.instrument s d in
  Alcotest.(check bool) "live sink wraps" true (w != d);
  Alcotest.(check bool) "wrapper still wraps the original" true
    (Runner.instrument s d != d);
  assert (w.Runner.insert ~tid:0 1 10);
  Alcotest.(check (option int)) "read through wrapper" (Some 10)
    (w.Runner.read ~tid:0 1)

let () =
  Alcotest.run "integration"
    [
      ( "cross-index",
        [
          Alcotest.test_case "agreement" `Slow test_cross_index_agreement;
          Alcotest.test_case "scan agreement" `Slow test_scan_agreement;
          Alcotest.test_case "scan early termination" `Quick
            test_scan_early_termination;
          Alcotest.test_case "string keys" `Slow test_string_cross_index;
          Alcotest.test_case "skiplist policy names" `Quick
            test_skiplist_policy;
          Alcotest.test_case "table 3 counters" `Slow test_table3;
        ] );
      ( "harness",
        [
          Alcotest.test_case "phases" `Quick test_harness_phases;
          Alcotest.test_case "all mixes all indexes" `Slow
            test_harness_hc_and_all_mixes;
          Alcotest.test_case "barrier" `Quick test_barrier;
          Alcotest.test_case "instrument idempotent" `Quick
            test_instrument_idempotent;
        ] );
    ]
