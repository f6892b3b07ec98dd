(* Unit and property tests for the Bw_obs observability registry:
   histogram bucketing, quantiles, cross-domain merging, the event ring,
   JSON round-trips and snapshot structure. *)

module O = Bw_obs
module H = O.Histo

(* --- bucket layout --- *)

let test_bucket_exact_below_16 () =
  for v = 0 to 15 do
    Alcotest.(check int)
      (Printf.sprintf "bucket of %d" v)
      v (H.bucket_of_value v);
    Alcotest.(check int) (Printf.sprintf "lo of %d" v) v (H.bucket_lo v);
    Alcotest.(check int) (Printf.sprintf "hi of %d" v) v (H.bucket_hi v)
  done

let test_bucket_boundaries () =
  (* the first log bucket starts at 16 with width 2 *)
  Alcotest.(check int) "bucket 15" 15 (H.bucket_of_value 15);
  Alcotest.(check int) "bucket 16" 16 (H.bucket_of_value 16);
  Alcotest.(check int) "17 shares 16's bucket" (H.bucket_of_value 16)
    (H.bucket_of_value 17);
  Alcotest.(check bool) "18 in the next bucket" true
    (H.bucket_of_value 18 > H.bucket_of_value 17)

let test_bucket_invariants () =
  (* every bucket's [lo, hi] range is consistent and contiguous *)
  let prev_hi = ref (-1) in
  for b = 0 to H.n_buckets - 1 do
    let lo = H.bucket_lo b and hi = H.bucket_hi b in
    Alcotest.(check bool) "lo <= hi" true (lo <= hi);
    Alcotest.(check int) "contiguous" (!prev_hi + 1) lo;
    Alcotest.(check int) "lo maps back" b (H.bucket_of_value lo);
    Alcotest.(check int) "hi maps back" b (H.bucket_of_value hi);
    prev_hi := hi
  done

let bucket_roundtrip_prop =
  QCheck.Test.make ~count:2_000 ~name:"value within its bucket bounds"
    QCheck.(map abs (small_int_corners ()))
    (fun v ->
      let b = H.bucket_of_value v in
      H.bucket_lo b <= v && v <= H.bucket_hi b)

let bucket_width_prop =
  (* relative bucket width stays <= 12.5% above the linear region *)
  QCheck.Test.make ~count:2_000 ~name:"relative width <= 1/8"
    QCheck.(int_range 16 max_int)
    (fun v ->
      let b = H.bucket_of_value v in
      let lo = H.bucket_lo b and hi = H.bucket_hi b in
      (hi - lo + 1) * 8 <= lo)

(* --- quantiles --- *)

let test_quantile_empty () =
  let h = H.create () in
  Alcotest.(check int) "empty p50" 0 (H.quantile h 0.5);
  Alcotest.(check int) "empty min" 0 (H.min_value h);
  Alcotest.(check int) "empty max" 0 (H.max_value h)

let test_quantile_exact_region () =
  (* values below 16 are bucketed exactly, so quantiles are exact *)
  let h = H.create () in
  List.iter (H.add h) [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  Alcotest.(check int) "p50 of 1..10" 5 (H.quantile h 0.5);
  Alcotest.(check int) "p90 of 1..10" 9 (H.quantile h 0.9);
  Alcotest.(check int) "p100 of 1..10" 10 (H.quantile h 1.0);
  Alcotest.(check int) "p0 takes rank 1" 1 (H.quantile h 0.0);
  Alcotest.(check int) "min" 1 (H.min_value h);
  Alcotest.(check int) "max" 10 (H.max_value h);
  Alcotest.(check int) "count" 10 (H.count h);
  Alcotest.(check int) "sum" 55 (H.sum h)

let test_quantile_skew () =
  let h = H.create () in
  for _ = 1 to 99 do
    H.add h 10
  done;
  H.add h 1_000_000;
  Alcotest.(check int) "p50 ignores the outlier" 10 (H.quantile h 0.5);
  Alcotest.(check int) "p90 ignores the outlier" 10 (H.quantile h 0.9);
  Alcotest.(check bool) "p100 covers the outlier" true
    (H.quantile h 1.0 >= 1_000_000);
  Alcotest.(check int) "max is exact" 1_000_000 (H.max_value h)

let quantile_bound_prop =
  (* nearest-rank quantile reported as a bucket upper bound: it is >= the
     true quantile value and within one bucket width (12.5%) above it *)
  QCheck.Test.make ~count:500 ~name:"quantile within bucket error"
    QCheck.(pair (list_of_size (Gen.int_range 1 200) (map abs small_int))
              (float_range 0.0 1.0))
    (fun (vs, q) ->
      let h = H.create () in
      List.iter (H.add h) vs;
      let sorted = List.sort compare vs in
      let n = List.length sorted in
      let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
      let truth = List.nth sorted (rank - 1) in
      let est = H.quantile h q in
      est >= truth && H.bucket_lo (H.bucket_of_value est) <= truth)

(* --- merging across domains --- *)

let merge_prop =
  (* merging per-domain histograms must equal one histogram fed all
     values: same counts per bucket, same sum/min/max/quantiles *)
  QCheck.Test.make ~count:300 ~name:"merge equals union"
    QCheck.(list_of_size (Gen.int_range 0 8)
              (list_of_size (Gen.int_range 0 100) (map abs (small_int_corners ()))))
    (fun shards ->
      let merged = H.create () and direct = H.create () in
      List.iter
        (fun shard ->
          let h = H.create () in
          List.iter (H.add h) shard;
          List.iter (H.add direct) shard;
          H.merge_into ~dst:merged h)
        shards;
      H.count merged = H.count direct
      && H.sum merged = H.sum direct
      && H.min_value merged = H.min_value direct
      && H.max_value merged = H.max_value direct
      && List.for_all
           (fun q -> H.quantile merged q = H.quantile direct q)
           [ 0.5; 0.9; 0.99; 1.0 ])

let test_merge_across_real_domains () =
  (* concurrent observes from several domains, then one snapshot *)
  let reg = O.create ~stripes:8 () in
  let s = O.sink reg in
  let nd = 4 and per = 10_000 in
  let domains =
    Array.init nd (fun tid ->
        Domain.spawn (fun () ->
            for i = 1 to per do
              O.observe s ~tid O.Lat_lookup ((i mod 100) + 1)
            done))
  in
  Array.iter Domain.join domains;
  let sn = O.snapshot reg in
  let hs =
    List.find (fun h -> h.O.hs_series = O.Lat_lookup) sn.O.sn_histos
  in
  Alcotest.(check int) "no observation lost" (nd * per) hs.O.hs_count;
  Alcotest.(check int) "min" 1 hs.O.hs_min;
  Alcotest.(check int) "max" 100 hs.O.hs_max

(* --- event ring --- *)

let test_event_ring_overflow () =
  let reg = O.create ~stripes:2 ~ring_capacity:8 () in
  let s = O.sink reg in
  for i = 1 to 20 do
    O.event s ~tid:0 O.Ev_split ~a:i ~b:0
  done;
  let sn = O.snapshot reg in
  Alcotest.(check int) "ring keeps capacity" 8 (List.length sn.O.sn_events);
  Alcotest.(check int) "drops reported" 12 sn.O.sn_dropped_events;
  (* survivors are the newest, oldest first *)
  Alcotest.(check (list int)) "newest survive"
    [ 13; 14; 15; 16; 17; 18; 19; 20 ]
    (List.map (fun e -> e.O.ev_a) sn.O.sn_events);
  (* per-kind totals are overflow-proof *)
  Alcotest.(check int) "totals survive overflow" 20
    (List.assoc O.Ev_split sn.O.sn_event_totals)

(* --- counters and gauges --- *)

let test_counters_and_gauges () =
  let reg = O.create ~stripes:4 () in
  let s = O.sink reg in
  O.incr s ~tid:0 O.C_splits;
  O.incr s ~tid:1 O.C_splits;
  O.incr_anon s O.C_mt_growths;
  O.register_gauge s O.G_epoch_pending (fun () -> 42);
  let sn = O.snapshot reg in
  Alcotest.(check int) "striped counter merged" 2
    (List.assoc O.C_splits sn.O.sn_counters);
  Alcotest.(check int) "anon counter" 1
    (List.assoc O.C_mt_growths sn.O.sn_counters);
  Alcotest.(check int) "gauge sampled" 42
    (List.assoc O.G_epoch_pending sn.O.sn_gauges);
  (* [count] reads one counter the way the snapshot merges it, the
     overflow stripe and the anon stripe included *)
  O.add s ~tid:9 O.C_splits 5;
  List.iter
    (fun (c, v) -> Alcotest.(check int) (O.counter_name c) v (O.count reg c))
    (O.snapshot reg).O.sn_counters;
  Alcotest.(check int) "count" 7 (O.count reg O.C_splits)

(* The series, counter and gauge index tables are written out by hand:
   a renumbering that gave two entries one slot would merge their
   values. Every entry must keep its own slot and its own name. *)

let all_series =
  O.
    [
      Lat_insert; Lat_delete; Lat_update; Lat_lookup; Lat_scan;
      Lat_consolidate; Lat_reclaim; Lat_req_get; Lat_req_put; Lat_req_delete;
      Lat_req_scan; Lat_req_batch; Lat_req_stats; Val_op_restarts;
      Val_chain_depth; Val_reclaim_batch; Val_batch_size;
    ]

let all_gauges =
  O.
    [
      G_epoch_pending; G_epoch_watermark_lag; G_mt_free_ids; G_mt_chunks;
      G_net_active_conns; G_net_queued_bytes;
    ]

let all_event_kinds =
  O.[ Ev_split; Ev_merge; Ev_consolidate; Ev_mt_grow; Ev_reclaim; Ev_root_collapse ]

let check_distinct what names =
  Alcotest.(check int)
    (what ^ " names distinct")
    (List.length names)
    (List.length (List.sort_uniq compare names))

let test_counter_slots_distinct () =
  let reg = O.create ~stripes:2 () in
  let s = O.sink reg in
  let counters = List.map fst (O.snapshot reg).O.sn_counters in
  List.iteri (fun i c -> O.add s ~tid:(i mod 3) c (i + 1)) counters;
  List.iteri
    (fun i c -> Alcotest.(check int) (O.counter_name c) (i + 1) (O.count reg c))
    counters;
  Alcotest.(check (list int))
    "snapshot keeps each value"
    (List.mapi (fun i _ -> i + 1) counters)
    (List.map snd (O.snapshot reg).O.sn_counters);
  check_distinct "counter" (List.map O.counter_name counters)

let test_series_slots_distinct () =
  let reg = O.create () in
  let s = O.sink reg in
  List.iteri (fun i se -> O.observe s ~tid:0 se (i + 1)) all_series;
  let sn = O.snapshot reg in
  Alcotest.(check int) "one histogram per series" (List.length all_series)
    (List.length sn.O.sn_histos);
  List.iteri
    (fun i se ->
      match List.find_opt (fun h -> h.O.hs_series = se) sn.O.sn_histos with
      | None -> Alcotest.failf "%s: no histogram" (O.series_name se)
      | Some h ->
          Alcotest.(check (pair int int))
            (O.series_name se) (1, i + 1) (h.O.hs_count, h.O.hs_sum);
          Alcotest.(check string)
            (O.series_name se ^ " unit")
            (if i < 13 then "ns" else "count")
            (O.series_unit se))
    all_series;
  check_distinct "series" (List.map O.series_name all_series)

let test_gauge_slots_distinct () =
  let reg = O.create () in
  let s = O.sink reg in
  List.iteri (fun i g -> O.register_gauge s g (fun () -> 100 + i)) all_gauges;
  let sn = O.snapshot reg in
  List.iteri
    (fun i g ->
      Alcotest.(check (option int)) (O.gauge_name g) (Some (100 + i))
        (List.assoc_opt g sn.O.sn_gauges))
    all_gauges;
  check_distinct "gauge" (List.map O.gauge_name all_gauges)

let test_event_totals_distinct () =
  let reg = O.create () in
  let s = O.sink reg in
  List.iteri
    (fun i k ->
      for _ = 0 to i do
        O.event s ~tid:0 k ~a:i ~b:0
      done)
    all_event_kinds;
  let sn = O.snapshot reg in
  List.iteri
    (fun i k ->
      Alcotest.(check (option int)) (O.event_kind_name k) (Some (i + 1))
        (List.assoc_opt k sn.O.sn_event_totals))
    all_event_kinds;
  check_distinct "event kind" (List.map O.event_kind_name all_event_kinds)

let test_histo_buckets () =
  let h = O.Histo.create () in
  List.iter (O.Histo.add h) [ 3; 3; 100; 101; 5000 ];
  let bs = O.Histo.buckets h in
  Alcotest.(check (list (triple int int int)))
    "non-empty buckets ascending"
    [
      (3, 3, 2);
      (O.Histo.bucket_lo (O.Histo.bucket_of_value 100),
       O.Histo.bucket_hi (O.Histo.bucket_of_value 100), 2);
      (O.Histo.bucket_lo (O.Histo.bucket_of_value 5000),
       O.Histo.bucket_hi (O.Histo.bucket_of_value 5000), 1);
    ]
    bs;
  List.iter
    (fun (lo, hi, _) -> Alcotest.(check bool) "lo <= hi" true (lo <= hi))
    bs;
  Alcotest.(check (list (triple int int int))) "empty" []
    (O.Histo.buckets (O.Histo.create ()))

(* --- the value histogram and striped counters the inspector and Table 3
   read: exact small values, percentiles, empty histograms, repeated
   observations through a registry, per-registry counters --- *)

let test_histogram_basics () =
  let h = H.create () in
  List.iter (H.add h) [ 1; 2; 2; 3; 3; 3 ];
  Alcotest.(check int) "count" 6 (H.count h);
  Alcotest.(check int) "sum" 14 (H.sum h);
  Alcotest.(check int) "min" 1 (H.min_value h);
  Alcotest.(check int) "max" 3 (H.max_value h);
  Alcotest.(check (list (triple int int int)))
    "buckets"
    [ (1, 1, 1); (2, 2, 2); (3, 3, 3) ]
    (H.buckets h)

let test_histogram_percentiles () =
  let h = H.create () in
  for v = 1 to 100 do
    H.add h v
  done;
  (* nearest rank, reported as the upper bound of the rank's bucket but
     never above the largest value recorded *)
  let at v = min 100 (H.bucket_hi (H.bucket_of_value v)) in
  Alcotest.(check int) "p50" (at 50) (H.quantile h 0.50);
  Alcotest.(check int) "p99" (at 99) (H.quantile h 0.99);
  Alcotest.(check int) "p100" (at 100) (H.quantile h 1.0);
  Alcotest.(check int) "p1 is exact" 1 (H.quantile h 0.01);
  Alcotest.(check bool) "p50 within 12.5%" true
    (H.quantile h 0.50 * 8 <= 50 * 9)

(* An empty histogram is neutral under merging both ways, and a registry
   that observed nothing reports no histogram rows. *)
let test_histogram_empty () =
  let h = H.create () in
  List.iter (H.add h) [ 7; 900 ];
  H.merge_into ~dst:h (H.create ());
  Alcotest.(check (list int)) "merging an empty one changes nothing"
    [ 2; 907; 7; 900 ]
    [ H.count h; H.sum h; H.min_value h; H.max_value h ];
  let e = H.create () in
  H.merge_into ~dst:e h;
  Alcotest.(check (list int)) "merging into an empty one copies"
    [ 2; 907; 7; 900 ]
    [ H.count e; H.sum e; H.min_value e; H.max_value e ];
  Alcotest.(check int) "no rows" 0
    (List.length (O.snapshot (O.create ())).O.sn_histos)

let test_histogram_addn_render () =
  let reg = O.create ~stripes:2 () in
  let s = O.sink reg in
  for _ = 1 to 10 do
    O.observe s ~tid:0 O.Val_chain_depth 5
  done;
  O.observe s ~tid:1 O.Val_chain_depth 500;
  let sn = O.snapshot reg in
  (match sn.O.sn_histos with
  | [ r ] ->
      Alcotest.(check (list int)) "count, sum, min, max, p50"
        [ 11; 550; 5; 500; 5 ]
        [ r.O.hs_count; r.O.hs_sum; r.O.hs_min; r.O.hs_max; r.O.hs_p50 ]
  | rs -> Alcotest.failf "%d histogram rows, expected 1" (List.length rs));
  let out = Format.asprintf "%a" O.pp_snapshot sn in
  let has sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length out && (String.sub out i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "renders the series" true
    (has (O.series_name O.Val_chain_depth));
  Alcotest.(check bool) "renders its count" true (has "count=11")

let test_counters_basics () =
  let reg = O.create ~stripes:4 () in
  let s = O.sink reg in
  O.incr s ~tid:0 O.C_cas_attempts;
  O.incr s ~tid:3 O.C_cas_attempts;
  O.add s ~tid:1 O.C_ptr_derefs 5;
  Alcotest.(check int) "summed" 2 (O.count reg O.C_cas_attempts);
  Alcotest.(check int) "add" 5 (O.count reg O.C_ptr_derefs);
  (* each registry counts alone: a fresh one reads zero *)
  Alcotest.(check int) "fresh registry" 0
    (O.count (O.create ()) O.C_cas_attempts);
  O.incr O.Null ~tid:0 O.C_cas_attempts;
  Alcotest.(check int) "null sink counts nothing" 2
    (O.count reg O.C_cas_attempts)

(* --- JSON --- *)

let test_json_roundtrip () =
  let open O.Json in
  let v =
    Obj
      [
        ("s", Str "a\"b\\c\nd\t\xe2\x82\xac");
        ("i", Int (-42));
        ("f", Float 1.5);
        ("b", Bool true);
        ("n", Null);
        ("a", Arr [ Int 1; Arr []; Obj [] ]);
      ]
  in
  match parse (to_string v) with
  | Ok v' -> Alcotest.(check bool) "roundtrip" true (v = v')
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_rejects_garbage () =
  let bad =
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "1 2"; "\"\\x\""; "{\"a\" 1}" ]
  in
  List.iter
    (fun s ->
      match O.Json.parse s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    bad

let test_snapshot_json_schema () =
  let reg = O.create ~stripes:4 () in
  let s = O.sink reg in
  for i = 1 to 100 do
    O.observe s ~tid:0 O.Lat_insert (i * 100)
  done;
  O.incr s ~tid:0 O.C_consolidations;
  O.event s ~tid:0 O.Ev_consolidate ~a:7 ~b:3;
  O.register_gauge s O.G_epoch_pending (fun () -> 0);
  let str = O.snapshot_to_string (O.snapshot reg) in
  match O.Json.parse str with
  | Error e -> Alcotest.failf "emitted JSON does not parse: %s" e
  | Ok v ->
      let get k v =
        match O.Json.member k v with
        | Some x -> x
        | None -> Alcotest.failf "missing field %s" k
      in
      (match get "histograms" v with
      | O.Json.Arr (h :: _) ->
          List.iter
            (fun k -> ignore (get k h))
            [ "name"; "unit"; "count"; "p50"; "p90"; "p99"; "min"; "max" ]
      | _ -> Alcotest.fail "histograms not a non-empty array");
      ignore (get "counters" v);
      (match O.Json.member "gauges" v with
      | Some (O.Json.Obj g) ->
          Alcotest.(check bool) "gauge present" true
            (List.mem_assoc "epoch_pending" g)
      | _ -> Alcotest.fail "gauges not an object");
      match get "events" v with
      | O.Json.Obj _ as ev ->
          ignore (get "dropped" ev);
          ignore (get "kinds" ev);
          ignore (get "log" ev)
      | _ -> Alcotest.fail "events not an object"

(* --- tree integration: probes populate the registry --- *)

module IK = Index_iface.Int_key
module IV = Index_iface.Int_value
module T = Bwtree.Make (IK) (IV)

let test_tree_populates_registry () =
  let reg = O.create () in
  let config =
    Bwtree.Config.make ~leaf_max:8 ~inner_max:6 ~leaf_chain_max:4
      ~inner_chain_max:2 ~leaf_min:2 ~inner_min:2 ~gc_threshold:16 ()
  in
  let t = T.create ~config ~obs:(O.To reg) () in
  for k = 0 to 4_999 do
    ignore (T.insert t k k)
  done;
  for k = 0 to 4_999 do
    ignore (T.lookup t k)
  done;
  for k = 0 to 2_499 do
    ignore (T.delete t k k)
  done;
  T.quiesce t ~tid:0;
  Epoch.flush (T.epoch t);
  let sn = O.snapshot reg in
  let histo series =
    try
      Some (List.find (fun h -> h.O.hs_series = series) sn.O.sn_histos)
    with Not_found -> None
  in
  (match histo O.Lat_insert with
  | Some h -> Alcotest.(check int) "insert latencies" 5_000 h.O.hs_count
  | None -> Alcotest.fail "no insert histogram");
  (match histo O.Val_chain_depth with
  | Some h -> Alcotest.(check int) "chain depths" 5_000 h.O.hs_count
  | None -> Alcotest.fail "no chain-depth histogram");
  Alcotest.(check bool) "splits counted" true
    (List.assoc O.C_splits sn.O.sn_counters > 0);
  Alcotest.(check bool) "consolidations counted" true
    (List.assoc O.C_consolidations sn.O.sn_counters > 0);
  let kinds =
    List.filter (fun (_, n) -> n > 0) sn.O.sn_event_totals
  in
  Alcotest.(check bool) "several structural event kinds" true
    (List.length kinds >= 3);
  (* quiesced + flushed: the pending-garbage gauge must read 0 *)
  Alcotest.(check int) "pending gauge drains" 0
    (List.assoc O.G_epoch_pending sn.O.sn_gauges)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "obs"
    [
      ( "buckets",
        [
          Alcotest.test_case "exact below 16" `Quick test_bucket_exact_below_16;
          Alcotest.test_case "boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "layout invariants" `Quick test_bucket_invariants;
          q bucket_roundtrip_prop;
          q bucket_width_prop;
        ] );
      ( "quantiles",
        [
          Alcotest.test_case "empty" `Quick test_quantile_empty;
          Alcotest.test_case "exact region" `Quick test_quantile_exact_region;
          Alcotest.test_case "skewed" `Quick test_quantile_skew;
          q quantile_bound_prop;
          Alcotest.test_case "buckets" `Quick test_histo_buckets;
        ] );
      ( "merge",
        [
          q merge_prop;
          Alcotest.test_case "across domains" `Quick
            test_merge_across_real_domains;
        ] );
      ( "events",
        [ Alcotest.test_case "ring overflow" `Quick test_event_ring_overflow ]
      );
      ( "registry",
        [
          Alcotest.test_case "counters and gauges" `Quick
            test_counters_and_gauges;
          Alcotest.test_case "every counter has its own slot" `Quick
            test_counter_slots_distinct;
          Alcotest.test_case "every series has its own histogram" `Quick
            test_series_slots_distinct;
          Alcotest.test_case "every gauge reports its own provider" `Quick
            test_gauge_slots_distinct;
          Alcotest.test_case "every event kind keeps its own total" `Quick
            test_event_totals_distinct;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "snapshot schema" `Quick test_snapshot_json_schema;
        ] );
      ( "integration",
        [
          Alcotest.test_case "tree populates registry" `Quick
            test_tree_populates_registry;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "basics" `Quick test_histogram_basics;
          Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "addn/render" `Quick test_histogram_addn_render;
        ] );
      ("counters", [ Alcotest.test_case "basics" `Quick test_counters_basics ]);
    ]
