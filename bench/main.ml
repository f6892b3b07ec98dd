(** Benchmark driver: regenerates every table and figure of the paper's
    evaluation (§5 experiments on the OpenBw-Tree's optimizations, §6
    cross-index comparison, §6.3 decomposition).

    Usage: [dune exec bench/main.exe -- [EXPERIMENT..] [OPTIONS]]

    Experiments: fig8 fig9 fig10 fig11 fig12 tab2 fig13 fig14 fig15 tab3
    fig16 fig17 fig18 bech, and beyond the paper abl store shards batch
    wal domains (default: all).

    Options: [--keys N] [--ops N] [--threads N] [--repeats N] [--full]

    Absolute numbers are not comparable to the paper's Xeon testbed (this
    is OCaml on whatever machine you have — see DESIGN.md for the
    substitution table); the *shape* of each result is the reproduction
    target and is recorded against the paper in EXPERIMENTS.md. *)

module W = Workload
open Harness

let print_header = Runner.print_header
let print_row = Runner.print_row

(* ------------------------------------------------------------------ *)
(* Scale                                                               *)
(* ------------------------------------------------------------------ *)

type scale = {
  keys : int;
  ops : int;
  threads : int;  (* the "20 worker threads" stand-in *)
  repeats : int;
}

let quick_scale = { keys = 30_000; ops = 60_000; threads = 8; repeats = 1 }
let full_scale = { keys = 500_000; ops = 1_000_000; threads = 16; repeats = 3 }

(* Optional observability sink (--metrics / --metrics-json). Every driver
   that goes through [mops_of] is wrapped with [Runner.instrument], so one
   run accumulates op-latency histograms across all selected experiments;
   Null (the default) keeps the wrapper a no-op so measured numbers are
   untouched. *)
let obs_sink = ref Bw_obs.Null

let wl_cfg scale =
  { W.default_config with num_keys = scale.keys; num_ops = scale.ops }

(* ------------------------------------------------------------------ *)
(* Generic workload execution                                          *)
(* ------------------------------------------------------------------ *)

(* Load the key set, then (for non-insert mixes) run the measured phase;
   [batch] > 1 submits the measured phase through the driver's batch
   path in groups of that many point ops. *)
let run_workload ?(batch = 1) (driver : 'k Runner.driver) ~(conv : int -> 'k)
    ~space ~mix ~nthreads scale =
  let cfg = wl_cfg scale in
  let load_trace = W.load_trace cfg space conv in
  let load_res = Runner.load driver ~nthreads load_trace in
  let res =
    match mix with
    | W.Insert_only -> load_res
    | _ ->
        let traces =
          Array.init nthreads (fun tid ->
              W.ops_trace cfg space mix ~tid ~nthreads conv)
        in
        Runner.run_batched driver ~batch traces
  in
  driver.stop_aux ();
  res

let mops_of ?batch ~mkdriver ~conv ~space ~mix ~nthreads scale =
  let xs =
    Array.init (max 1 scale.repeats) (fun _ ->
        let d = Runner.instrument !obs_sink (mkdriver ()) in
        (run_workload ?batch d ~conv ~space ~mix ~nthreads scale).mops)
  in
  Bw_util.Stats.median xs

let all_mixes = [ W.Insert_only; W.Read_only; W.Read_update; W.Scan_insert ]
let int_spaces = [ W.Mono_int; W.Rand_int ]

(* run one (space, mix) cell for a Bw-Tree of the given config, keyed
   by the space's key type *)
let cell ~config ~space ~mix ~nthreads scale =
  let module D = (val Drivers.of_key_space space) in
  mops_of
    ~mkdriver:(fun () -> D.bwtree ~config ())
    ~conv:(D.K.of_workload space) ~space ~mix ~nthreads scale

(* ------------------------------------------------------------------ *)
(* §5.2 Figure 8: delta-record pre-allocation (single-threaded)        *)
(* ------------------------------------------------------------------ *)

let fig8 scale =
  print_header
    "Figure 8: Delta Record Pre-allocation (single-threaded, \
     independently-allocated vs pre-allocated)";
  let base = Bwtree.Config.make ~preallocate:false () in
  let opt = Bwtree.default_config in
  List.iter
    (fun space ->
      Printf.printf "-- %s keys --\n%!"
        (Format.asprintf "%a" W.pp_key_space space);
      List.iter
        (fun mix ->
          let run config =
            cell ~config ~space ~mix ~nthreads:1 scale
          in
          let a = run base and b = run opt in
          print_row
            (Format.asprintf "%a" W.pp_mix mix)
            [ ("indep", a); ("prealloc", b); ("speedup", b /. a) ])
        all_mixes)
    [ W.Mono_int; W.Rand_int; W.Email ]

(* ------------------------------------------------------------------ *)
(* §5.3 Figure 9: fast consolidation & search shortcuts                *)
(* ------------------------------------------------------------------ *)

let fig9 scale =
  print_header
    "Figure 9: Fast Consolidation & Search Shortcuts (single-threaded, \
     off vs on)";
  let base =
    Bwtree.Config.make ~fast_consolidation:false ~search_shortcuts:false ()
  in
  let opt = Bwtree.default_config in
  List.iter
    (fun space ->
      Printf.printf "-- %s keys --\n%!"
        (Format.asprintf "%a" W.pp_key_space space);
      List.iter
        (fun mix ->
          let run config =
            cell ~config ~space ~mix ~nthreads:1 scale
          in
          let a = run base and b = run opt in
          print_row
            (Format.asprintf "%a" W.pp_mix mix)
            [ ("no FC&SS", a); ("FC&SS", b); ("speedup", b /. a) ])
        all_mixes)
    [ W.Mono_int; W.Rand_int; W.Email ]

(* ------------------------------------------------------------------ *)
(* §5.4 Figure 10: garbage collection scalability                      *)
(* ------------------------------------------------------------------ *)

(* The epoch-protocol microbenchmark behind Fig. 10: enter/exit cost in
   isolation. The centralized scheme's entry is a shared atomic RMW (cache
   coherence traffic on real multi-socket hardware); the decentralized
   entry is a read of the global epoch plus a write to a thread-private
   cell. *)
let fig10_protocol scale =
  Printf.printf "-- epoch protocol microbenchmark (enter/exit pairs) --\n%!";
  let iters = 2_000_000 in
  List.iter
    (fun nthreads ->
      let cells =
        List.map
          (fun (label, scheme) ->
            let e = Epoch.create ~scheme ~max_threads:nthreads () in
            let per = iters / nthreads in
            let seconds =
              Runner.run_phase ~nthreads (fun tid ->
                  for _ = 1 to per do
                    Epoch.op_begin e ~tid;
                    Epoch.op_end e ~tid
                  done)
            in
            (label, Bw_util.Stats.throughput_mops ~ops:iters ~seconds))
          [ ("centralized", Epoch.Centralized);
            ("decentralized", Epoch.Decentralized) ]
      in
      print_row ~unit_:"M enter+exit/s"
        (Printf.sprintf "%d threads" nthreads)
        cells)
    [ 1; scale.threads ]

let fig10 scale =
  print_header
    "Figure 10: GC Scalability (Read/Update; centralized vs decentralized \
     epochs; thread sweep)";
  let threads = [ 1; 2; 4; scale.threads ] in
  let centralized =
    Bwtree.Config.make ~gc_scheme:Epoch.Centralized ()
  in
  let decentralized = Bwtree.default_config in
  List.iter
    (fun space ->
      Printf.printf "-- %s keys --\n%!"
        (Format.asprintf "%a" W.pp_key_space space);
      List.iter
        (fun nthreads ->
          let run config =
            cell ~config ~space ~mix:W.Read_update ~nthreads scale
          in
          let c = run centralized and d = run decentralized in
          print_row
            (Printf.sprintf "%d threads" nthreads)
            [ ("centralized", c); ("decentralized", d); ("ratio", d /. c) ])
        threads)
    [ W.Mono_int; W.Rand_int; W.Email ];
  fig10_protocol scale

(* ------------------------------------------------------------------ *)
(* §5.5 Figure 11: delta-chain length & node size                      *)
(* ------------------------------------------------------------------ *)

let fig11 scale =
  print_header
    "Figure 11: Delta Chain Length x Node Size (Mono-Int, multi-threaded)";
  let chains = [ 8; 16; 24; 32; 40 ] in
  let node_sizes = [ 32; 64; 128 ] in
  List.iter
    (fun mix ->
      Printf.printf "-- %s --\n%!" (Format.asprintf "%a" W.pp_mix mix);
      List.iter
        (fun chain ->
          let cells =
            List.map
              (fun ns ->
                let config =
                  Bwtree.Config.make ~leaf_chain_max:chain
                    ~inner_chain_max:(min chain 4) ~leaf_max:ns
                    ~inner_max:(max 16 (ns / 2)) ~leaf_min:(max 2 (ns / 8))
                    ~inner_min:(max 2 (ns / 8)) ()
                in
                let v =
                  mops_of
                    ~mkdriver:(fun () -> Drivers.Int.bwtree ~config ())
                    ~conv:(W.int_key_of W.Mono_int) ~space:W.Mono_int ~mix
                    ~nthreads:scale.threads scale
                in
                (Printf.sprintf "node=%d" ns, v))
              node_sizes
          in
          print_row (Printf.sprintf "chain=%d" chain) cells)
        chains)
    [ W.Insert_only; W.Read_update ]

(* ------------------------------------------------------------------ *)
(* §5.6 Figure 12: optimization summary                                *)
(* ------------------------------------------------------------------ *)

let fig12 scale =
  print_header
    "Figure 12a: Optimizations applied cumulatively (Rand-Int, Read/Update)";
  let steps =
    [
      ("Bw-Tree", Bwtree.microsoft_config);
      ("+GC", { Bwtree.microsoft_config with gc_scheme = Epoch.Decentralized });
      ( "+PA",
        {
          Bwtree.microsoft_config with
          gc_scheme = Epoch.Decentralized;
          preallocate = true;
          leaf_chain_max = Bwtree.default_config.leaf_chain_max;
          inner_chain_max = Bwtree.default_config.inner_chain_max;
        } );
      ("+FC&SS", Bwtree.Config.make ~unique_keys:true ());
      ("+NK", Bwtree.Config.make ~unique_keys:false ());
    ]
  in
  List.iter
    (fun nthreads ->
      let cells =
        List.map
          (fun (label, config) ->
            ( label,
              mops_of
                ~mkdriver:(fun () -> Drivers.Int.bwtree ~config ())
                ~conv:(W.int_key_of W.Rand_int) ~space:W.Rand_int
                ~mix:W.Read_update ~nthreads scale ))
          steps
      in
      print_row (Printf.sprintf "%d thread(s)" nthreads) cells)
    [ 1; scale.threads ];
  print_header "Figure 12b: Bw-Tree vs OpenBw-Tree (Mono-Int, multi-threaded)";
  List.iter
    (fun mix ->
      let run config =
        mops_of
          ~mkdriver:(fun () -> Drivers.Int.bwtree ~config ())
          ~conv:(W.int_key_of W.Mono_int) ~space:W.Mono_int ~mix
          ~nthreads:scale.threads scale
      in
      let a = run Bwtree.microsoft_config in
      let b = run Bwtree.default_config in
      print_row
        (Format.asprintf "%a" W.pp_mix mix)
        [ ("Bw-Tree", a); ("OpenBw-Tree", b); ("speedup", b /. a) ])
    all_mixes

(* ------------------------------------------------------------------ *)
(* Table 2: OpenBw-Tree statistics under Insert-only                   *)
(* ------------------------------------------------------------------ *)

(* Insert via the high-contention generator: every thread draws strictly
   increasing keys from a shared clock (the RDTSC substitute). *)
let hc_insert_run (d : int Runner.driver) ~nthreads ~ops =
  let hc = W.Hc.create ~nthreads in
  d.start_aux ();
  let per = ops / nthreads in
  let seconds =
    Runner.run_phase ~nthreads (fun tid ->
        for i = 1 to per do
          let k = W.Hc.next hc ~tid in
          ignore (d.insert ~tid k i)
        done;
        d.thread_done ~tid)
  in
  d.stop_aux ();
  {
    Runner.ops;
    seconds;
    mops = Bw_util.Stats.throughput_mops ~ops ~seconds;
    mem_words = 0;
  }

let tab2 scale =
  print_header "Table 2: OpenBw-Tree statistics (Insert-only, multi-threaded)";
  let run_one space =
    let tree =
      Drivers.Int.Bw.create ~obs:(Bw_obs.sink (Bw_obs.create ())) ()
    in
    let driver = Drivers.Int.driver_of_tree tree in
    (match space with
    | W.Mono_hc ->
        ignore (hc_insert_run driver ~nthreads:scale.threads ~ops:scale.keys)
    | _ ->
        let cfg = wl_cfg scale in
        let trace = W.load_trace cfg space (W.int_key_of space) in
        ignore (Runner.load driver ~nthreads:scale.threads trace);
        driver.stop_aux ());
    let ss = Drivers.Int.Bw.structure_stats tree in
    let os = Drivers.Int.Bw.op_stats tree in
    let abort_rate =
      if os.inserts = 0 then 0.0
      else 100.0 *. float_of_int os.restarts /. float_of_int os.inserts
    in
    Printf.printf
      "%-10s IDCL %5.2f | LDCL %5.2f | INS %6.2f | LNS %6.2f | Abort \
       %6.2f%% | IPU %5.1f%% | LPU %5.1f%%\n%!"
      (Format.asprintf "%a" W.pp_key_space space)
      ss.avg_inner_chain ss.avg_leaf_chain ss.avg_inner_size ss.avg_leaf_size
      abort_rate
      (100.0 *. ss.inner_prealloc_util)
      (100.0 *. ss.leaf_prealloc_util)
  in
  List.iter run_one [ W.Mono_int; W.Rand_int; W.Mono_hc ]

(* ------------------------------------------------------------------ *)
(* §6.1 Figures 13/14: the six-index comparison                        *)
(* ------------------------------------------------------------------ *)

let index_comparison scale ~nthreads title =
  print_header title;
  List.iter
    (fun space ->
      Printf.printf "-- %s keys --\n%!"
        (Format.asprintf "%a" W.pp_key_space space);
      List.iter
        (fun mix ->
          let module D = (val Drivers.of_key_space space) in
          let cells =
            List.map
              (fun (name, mk) ->
                ( name,
                  mops_of ~mkdriver:mk ~conv:(D.K.of_workload space) ~space
                    ~mix ~nthreads scale ))
              (D.lineup ())
          in
          print_row (Format.asprintf "%a" W.pp_mix mix) cells)
        all_mixes)
    (int_spaces @ [ W.Email ])

let fig13 scale =
  index_comparison scale ~nthreads:1
    "Figure 13: In-Memory Index Comparison (single-threaded)"

let fig14 scale =
  index_comparison scale ~nthreads:scale.threads
    (Printf.sprintf
       "Figure 14: In-Memory Index Comparison (multi-threaded, %d workers)"
       scale.threads)

(* ------------------------------------------------------------------ *)
(* Figure 15: memory usage                                             *)
(* ------------------------------------------------------------------ *)

let fig15 scale =
  print_header "Figure 15: Memory Usage (Read/Update; MB of live heap)";
  let mb words = float_of_int (words * 8) /. 1024.0 /. 1024.0 in
  List.iter
    (fun nthreads ->
      Printf.printf "-- %d thread(s) --\n%!" nthreads;
      List.iter
        (fun space ->
          let module D = (val Drivers.of_key_space space) in
          let cells =
            List.map
              (fun (name, mk) ->
                let d = mk () in
                let _ =
                  run_workload d ~conv:(D.K.of_workload space) ~space
                    ~mix:W.Read_update ~nthreads scale
                in
                (name, mb (d.memory_words ())))
              (D.lineup ())
          in
          print_row ~unit_:"MB"
            (Format.asprintf "%a" W.pp_key_space space)
            cells)
        (int_spaces @ [ W.Email ]))
    [ 1; scale.threads ]

(* ------------------------------------------------------------------ *)
(* Table 3: microbenchmark counters                                    *)
(* ------------------------------------------------------------------ *)

let tab3 scale =
  print_header
    "Table 3: Software event counters, Rand-Int Insert-only (events per \
     operation; hardware-counter substitute)";
  Printf.printf "%-14s | %9s %9s %9s %9s %9s %9s\n%!" "index" "ptr-deref"
    "key-cmp" "alloc" "cas" "cas-fail" "restart";
  List.iter
    (fun (name, _) ->
      let reg = Bw_obs.create () in
      let d =
        List.assoc name (Drivers.Int.lineup ~obs:(Bw_obs.sink reg) ()) ()
      in
      let cfg = wl_cfg scale in
      let trace = W.load_trace cfg W.Rand_int (W.int_key_of W.Rand_int) in
      let res = Runner.load d ~nthreads:scale.threads trace in
      d.stop_aux ();
      let per c = float_of_int (Bw_obs.count reg c) /. float_of_int res.ops in
      Printf.printf "%-14s | %9.2f %9.2f %9.2f %9.2f %9.4f %9.4f\n%!" name
        (per Bw_obs.C_ptr_derefs) (per Bw_obs.C_key_compares)
        (per Bw_obs.C_allocations) (per Bw_obs.C_cas_attempts)
        (per Bw_obs.C_cas_failures) (per Bw_obs.C_restarts))
    (Drivers.Int.lineup ())

(* ------------------------------------------------------------------ *)
(* §6.2 Figures 16/17: high contention                                 *)
(* ------------------------------------------------------------------ *)

let fig16 scale =
  print_header
    "Figure 16: High-Contention Insert-only (Mono-HC keys) + software \
     access-rate counters (DRAM-rate substitute)";
  let thread_configs =
    [ (scale.threads, "T workers"); (scale.threads * 2, "2T workers") ]
  in
  List.iter
    (fun (nthreads, label) ->
      Printf.printf "-- %s (%d) --\n%!" label nthreads;
      List.iter
        (fun (name, _) ->
          let reg = Bw_obs.create () in
          let d =
            List.assoc name (Drivers.Int.lineup ~obs:(Bw_obs.sink reg) ()) ()
          in
          let res = hc_insert_run d ~nthreads ~ops:scale.keys in
          let rate c =
            float_of_int (Bw_obs.count reg c) /. res.seconds /. 1e6
          in
          Printf.printf
            "%-14s | %8.3f Mops/s | deref %8.1f M/s | cas-fail %8.3f M/s\n%!"
            name res.mops
            (rate Bw_obs.C_ptr_derefs)
            (rate Bw_obs.C_cas_failures))
        (Drivers.Int.lineup ()))
    thread_configs

let fig17 scale =
  print_header
    "Figure 17: Normal (Mono-Int) vs High-Contention (Mono-HC) Insert-only";
  List.iter
    (fun (name, mk) ->
      let normal =
        let d = mk () in
        let cfg = wl_cfg scale in
        let trace = W.load_trace cfg W.Mono_int (W.int_key_of W.Mono_int) in
        let r = Runner.load d ~nthreads:scale.threads trace in
        d.stop_aux ();
        r.mops
      in
      let hc =
        let d = mk () in
        (hc_insert_run d ~nthreads:scale.threads ~ops:scale.keys).mops
      in
      print_row name
        [
          ("mono-int", normal);
          ("high-contention", hc);
          ("degradation x", normal /. hc);
        ])
    (Drivers.Int.lineup ())

(* ------------------------------------------------------------------ *)
(* §6.3 Figure 18: performance decomposition                           *)
(* ------------------------------------------------------------------ *)

let fig18 scale =
  print_header
    "Figure 18: Performance decomposition (Rand-Int, single-threaded; \
     features disabled one by one)";
  let conv = W.int_key_of W.Rand_int in
  let cfg = wl_cfg scale in
  let time_run f n =
    let t0 = Unix.gettimeofday () in
    f ();
    Bw_util.Stats.throughput_mops ~ops:n ~seconds:(Unix.gettimeofday () -. t0)
  in
  let insert_mops config =
    mops_of
      ~mkdriver:(fun () -> Drivers.Int.bwtree ~config ())
      ~conv ~space:W.Rand_int ~mix:W.Insert_only ~nthreads:1 scale
  in
  let read_mops config ~prep =
    let tree = Drivers.Int.Bw.create ~config () in
    let d = Drivers.Int.driver_of_tree ~name:"bw" tree in
    let trace = W.load_trace cfg W.Rand_int conv in
    ignore (Runner.load d ~nthreads:1 trace);
    d.stop_aux ();
    prep tree;
    let ops = W.ops_trace cfg W.Rand_int W.Read_only ~tid:0 ~nthreads:1 conv in
    time_run
      (fun () -> Array.iter (fun op -> Runner.exec_op d ~tid:0 op) ops)
      (Array.length ops)
  in
  (* the paper's OpenBw-Tree: only writers consolidate, so reads pay for
     the chains a load leaves behind *)
  let base = { Bwtree.default_config with read_consolidation = false } in
  print_row "OpenBw-Tree"
    [
      ("insert", insert_mops base); ("read", read_mops base ~prep:(fun _ -> ()));
    ];
  print_row "+read consolidation (default)"
    [ ("read", read_mops Bwtree.default_config ~prep:(fun _ -> ())) ];
  print_row "-DC (no delta chains)"
    [ ("read", read_mops base ~prep:Drivers.Int.Bw.consolidate_all) ];
  let nocas = { base with use_atomic_cas = false } in
  print_row "-CAS (plain compare+store)"
    [
      ("insert", insert_mops nocas);
      ("read", read_mops nocas ~prep:(fun _ -> ()));
    ];
  (* -MT: frozen direct-pointer tree (no mapping table, no chains) *)
  let mt_read =
    let tree = Drivers.Int.Bw.create () in
    let d = Drivers.Int.driver_of_tree ~name:"bw" tree in
    let trace = W.load_trace cfg W.Rand_int conv in
    ignore (Runner.load d ~nthreads:1 trace);
    d.stop_aux ();
    let frozen = Drivers.Int.Bw.freeze tree in
    let ops = W.ops_trace cfg W.Rand_int W.Read_only ~tid:0 ~nthreads:1 conv in
    time_run
      (fun () ->
        Array.iter
          (function
            | W.Read k -> ignore (Drivers.Int.Bw.frozen_lookup frozen k)
            | _ -> ())
          ops)
      (Array.length ops)
  in
  print_row "-MT (direct pointers)" [ ("read", mt_read) ];
  let nodelta = { base with inplace_leaf_update = true } in
  print_row "-DU (in-place leaf updates)" [ ("insert", insert_mops nodelta) ];
  print_row "B+Tree (OLC)"
    [
      ( "insert",
        mops_of
          ~mkdriver:(fun () -> Drivers.Int.btree ())
          ~conv ~space:W.Rand_int ~mix:W.Insert_only ~nthreads:1 scale );
      ( "read",
        mops_of
          ~mkdriver:(fun () -> Drivers.Int.btree ())
          ~conv ~space:W.Rand_int ~mix:W.Read_only ~nthreads:1 scale );
    ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-latencies                                            *)
(* ------------------------------------------------------------------ *)

let bech scale =
  print_header "Bechamel micro-latencies (single-op, ns/op; supports Table 3)";
  let open Bechamel in
  let preloaded mk insert =
    let d = mk () in
    let cfg = { (wl_cfg scale) with num_keys = min scale.keys 20_000 } in
    let trace = W.load_trace cfg W.Rand_int (W.int_key_of W.Rand_int) in
    Array.iter (fun (k, v) -> ignore (insert d k v)) trace;
    (d, cfg.num_keys)
  in
  let tests =
    List.concat_map
      (fun (name, mk) ->
        let d, n = preloaded mk (fun d k v -> d.Runner.insert ~tid:0 k v) in
        let rng = Bw_util.Rng.create ~seed:99L in
        let lookup =
          Test.make ~name:(name ^ "/lookup")
            (Staged.stage (fun () ->
                 let i = Bw_util.Rng.next_int rng n in
                 ignore (d.Runner.read ~tid:0 (W.Keys.rand_int i))))
        in
        let update =
          Test.make ~name:(name ^ "/update")
            (Staged.stage (fun () ->
                 let i = Bw_util.Rng.next_int rng n in
                 ignore (d.Runner.update ~tid:0 (W.Keys.rand_int i) 42)))
        in
        let visit _ _ = () in
        let scan48 =
          Test.make ~name:(name ^ "/scan48")
            (Staged.stage (fun () ->
                 let i = Bw_util.Rng.next_int rng n in
                 ignore (d.Runner.scan ~tid:0 (W.Keys.rand_int i) ~n:48 visit)))
        in
        (* the scan-side consolidation worst case: a write lands on the
           leaf before every scan of it, so a Bw-Tree scan's rebuild is
           never reused *)
        let write_scan48 =
          Test.make ~name:(name ^ "/write+scan48")
            (Staged.stage (fun () ->
                 let k = W.Keys.rand_int (Bw_util.Rng.next_int rng n) in
                 ignore (d.Runner.insert ~tid:0 (k + 1) 1);
                 ignore (d.Runner.remove ~tid:0 (k + 1));
                 ignore (d.Runner.scan ~tid:0 k ~n:48 visit)))
        in
        [ lookup; update; scan48; write_scan48 ])
      (Drivers.Int.lineup ())
  in
  let grouped = Test.make_grouped ~name:"index" tests in
  (* No per-sample [Gc.compact] ([stabilize]): with six preloaded
     indexes live, each compaction ate most of the quota, leaving a few
     dozen cold calls per row; the rows report warm steady state. *)
  let cfg =
    Benchmark.cfg ~limit:500 ~stabilize:false ~quota:(Time.second 0.25)
      ~kde:None ()
  in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (name, est) ->
      match Analyze.OLS.estimates est with
      | Some (t :: _) -> Printf.printf "%-36s %10.1f ns/op\n%!" name t
      | _ -> Printf.printf "%-36s (no estimate)\n%!" name)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Ablations beyond the paper (see DESIGN.md)                          *)
(* ------------------------------------------------------------------ *)

let abl scale =
  print_header
    "Ablation A1: SkipList tower policy (background thread, the paper's \
     configuration, vs inline CaS towers)";
  List.iter
    (fun mix ->
      let run policy =
        mops_of
          ~mkdriver:(fun () -> Drivers.Int.skiplist ~policy ())
          ~conv:(W.int_key_of W.Rand_int) ~space:W.Rand_int ~mix
          ~nthreads:scale.threads scale
      in
      let bg = run Skiplist.Background and inl = run Skiplist.Inline in
      print_row
        (Format.asprintf "%a" W.pp_mix mix)
        [ ("background", bg); ("inline", inl); ("inline/bg", inl /. bg) ])
    [ W.Insert_only; W.Read_only ];

  print_header
    "Ablation A2: mapping-table chunk size (lock-free growth granularity)";
  let ids = 200_000 in
  List.iter
    (fun chunk_bits ->
      let t =
        Mapping_table.create ~chunk_bits
          ~dir_bits:(max 4 (22 - chunk_bits))
          ~dummy:(-1) ()
      in
      let t0 = Unix.gettimeofday () in
      for i = 0 to ids - 1 do
        ignore (Mapping_table.allocate t i)
      done;
      let alloc_s = Unix.gettimeofday () -. t0 in
      let rng = Bw_util.Rng.create ~seed:5L in
      let t0 = Unix.gettimeofday () in
      let acc = ref 0 in
      for _ = 0 to (2 * ids) - 1 do
        acc := !acc lxor Mapping_table.get t (Bw_util.Rng.next_int rng ids)
      done;
      let get_s = Unix.gettimeofday () -. t0 in
      ignore !acc;
      Printf.printf
        "chunk=2^%-2d | alloc %7.3f Mops/s | get %7.3f Mops/s | chunks %d\n%!"
        chunk_bits
        (Bw_util.Stats.throughput_mops ~ops:ids ~seconds:alloc_s)
        (Bw_util.Stats.throughput_mops ~ops:(2 * ids) ~seconds:get_s)
        (Mapping_table.chunks_allocated t))
    [ 8; 12; 16; 20 ];

  print_header
    "Ablation A3: decentralized-GC threshold (local garbage list trigger)";
  List.iter
    (fun gc_threshold ->
      let config = Bwtree.Config.make ~gc_threshold () in
      let v =
        mops_of
          ~mkdriver:(fun () -> Drivers.Int.bwtree ~config ())
          ~conv:(W.int_key_of W.Rand_int) ~space:W.Rand_int
          ~mix:W.Read_update ~nthreads:scale.threads scale
      in
      print_row (Printf.sprintf "threshold=%d" gc_threshold) [ ("A", v) ])
    [ 64; 256; 1024; 4096 ];

  print_header
    "Ablation A4: non-unique key support cost (Fig. 12a's +NK bar, \
     detailed; no duplicate keys present)";
  List.iter
    (fun mix ->
      let run unique_keys =
        let config = Bwtree.Config.make ~unique_keys () in
        mops_of
          ~mkdriver:(fun () -> Drivers.Int.bwtree ~config ())
          ~conv:(W.int_key_of W.Rand_int) ~space:W.Rand_int ~mix ~nthreads:1
          scale
      in
      let u = run true and n = run false in
      print_row
        (Format.asprintf "%a" W.pp_mix mix)
        [ ("unique", u); ("non-unique", n); ("ratio", n /. u) ])
    [ W.Insert_only; W.Read_only; W.Read_update ]

(* ------------------------------------------------------------------ *)
(* Page-store substrate: checkpoint / recovery / compaction rates      *)
(* ------------------------------------------------------------------ *)

module Cp = Drivers.Int.Durable.CP

let store scale =
  print_header
    "Page store: checkpoint, recovery and segment-GC rates (LLAMA-style \
     substrate, DESIGN.md)";
  let t = Drivers.Int.Bw.create () in
  let n = scale.keys in
  for i = 0 to n - 1 do
    ignore (Drivers.Int.Bw.insert t (W.Keys.rand_int i) i)
  done;
  let log = Pagestore.Log.create () in
  let time f =
    let t0 = Unix.gettimeofday () in
    let x = f () in
    (x, Unix.gettimeofday () -. t0)
  in
  let root1, save_s = time (fun () -> Cp.save ~page_items:128 t log) in
  let _, save2_s = time (fun () -> Cp.save ~page_items:128 t log) in
  let root2 = Cp.save ~page_items:128 t log in
  let tree', load_s = time (fun () -> Cp.load log root2) in
  let reclaimed, compact_s =
    time (fun () -> fst (Cp.compact_keeping log [ root2 ]))
  in
  ignore root1;
  Printf.printf
    "checkpoint : %7.3f M items/s (first) | %7.3f M items/s (steady)\n"
    (Bw_util.Stats.throughput_mops ~ops:n ~seconds:save_s)
    (Bw_util.Stats.throughput_mops ~ops:n ~seconds:save2_s);
  Printf.printf "recovery   : %7.3f M items/s (%d keys rebuilt)\n"
    (Bw_util.Stats.throughput_mops ~ops:n ~seconds:load_s)
    (Drivers.Int.Bw.cardinal tree');
  Printf.printf
    "segment GC : %7.2f MB reclaimed in %.3fs (%.1f MB/s); log now %.2f MB \
     in %d segments\n"
    (float_of_int reclaimed /. 1048576.)
    compact_s
    (float_of_int reclaimed /. 1048576. /. compact_s)
    (float_of_int (Pagestore.Log.bytes_used log) /. 1048576.)
    (Pagestore.Log.segment_count log)

(* ------------------------------------------------------------------ *)
(* Bw-forest: shard-count scaling over the lib/shard router            *)
(* ------------------------------------------------------------------ *)

(* The paper (§6) attributes the Bw-tree's scalability ceiling to
   centralized-structure contention (mapping table, root deltas);
   range-partitioning the key space over N smaller trees divides that
   contention without changing the driver contract. This measures YCSB
   C/A/E over a forest of 1/2/4/8 OpenBw-Trees on uniform-random int
   keys (the int forest's default partition, over the non-negative ints,
   spreads them evenly across shards). *)
let shards_bench scale =
  print_header
    "Bw-forest: shard-count scaling (YCSB C/A/E, rand int keys, \
     range-partitioned OpenBw-Tree forest)";
  let counts = [ 1; 2; 4; 8 ] in
  List.iter
    (fun mix ->
      let cells =
        List.map
          (fun n ->
            let mk () = Drivers.Int.forest ~shards:n () in
            ( Printf.sprintf "%dsh" n,
              mops_of ~mkdriver:mk ~conv:(W.int_key_of W.Rand_int)
                ~space:W.Rand_int ~mix ~nthreads:scale.threads scale ))
          counts
      in
      print_row (Format.asprintf "%a" W.pp_mix mix) cells)
    [ W.Read_only; W.Read_update; W.Scan_insert ]

(* ------------------------------------------------------------------ *)
(* Batch execution: ops per execute_batch call                         *)
(* ------------------------------------------------------------------ *)

(* The epoch-amortized multi-op path (DESIGN.md "Batch execution"):
   point ops sorted by key and walked left-to-right through one epoch
   entry, reusing the previous leaf while keys stay inside its separator
   range. Batch 1 is the plain per-op path, so the first column is the
   baseline the speedup is measured against. *)
let batch_bench scale =
  print_header
    "Batch execution: ops per execute_batch call (rand int keys, \
     OpenBw-Tree, multi-threaded)";
  let batches = [ 1; 8; 64; 256; 1024 ] in
  List.iter
    (fun mix ->
      let cells =
        List.map
          (fun b ->
            ( Printf.sprintf "b=%d" b,
              mops_of ~batch:b
                ~mkdriver:(fun () -> Drivers.Int.bwtree ())
                ~conv:(W.int_key_of W.Rand_int) ~space:W.Rand_int ~mix
                ~nthreads:scale.threads scale ))
          batches
      in
      print_row (Format.asprintf "%a" W.pp_mix mix) cells)
    [ W.Read_only; W.Read_update ]

(* ------------------------------------------------------------------ *)
(* Durable WAL overhead: group commit vs the in-memory tree            *)
(* ------------------------------------------------------------------ *)

(* The durability tax of the pagestore WAL (DESIGN.md "Durability &
   recovery") on YCSB-A: every applied update appends a commit record,
   and with [fsync] each commit also syncs — so batch size is the group
   commit size and the knob that amortizes the tax. The in-memory row is
   the same tree without the WAL wrapper; the acceptance bar is batched
   (>= 256) durable throughput within 2x of it. *)
let wal_bench scale =
  print_header
    "Durable WAL overhead: group-commit batch size vs in-memory (YCSB-A, \
     rand int keys, multi-threaded)";
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "bwt-bench-wal"
  in
  let opened = ref [] in
  let durable ~fsync () =
    Pagestore.Store.rm_rf dir;
    let dur = Drivers.Int.durable ~fsync ~shards:1 ~dir () in
    opened := dur :: !opened;
    dur.Drivers.dur_driver
  in
  let batches = [ 1; 64; 256 ] in
  let row name mk =
    let cells =
      List.map
        (fun b ->
          ( Printf.sprintf "b=%d" b,
            mops_of ~batch:b ~mkdriver:mk ~conv:(W.int_key_of W.Rand_int)
              ~space:W.Rand_int ~mix:W.Read_update ~nthreads:scale.threads
              scale ))
        batches
    in
    print_row name cells
  in
  row "in-memory" (fun () -> Drivers.Int.bwtree ());
  row "wal (no fsync)" (durable ~fsync:false);
  row "wal (fsync)" (durable ~fsync:true);
  List.iter (fun d -> d.Drivers.dur_close ()) !opened;
  Pagestore.Store.rm_rf dir

(* ------------------------------------------------------------------ *)
(* Per-read cost at 1 and 2 domains on one shared index                *)
(* ------------------------------------------------------------------ *)

(* Read-only Rand-Int on one shared index: the cost of a read in each
   domain when one domain reads and when two do, and the 2-over-1 ratio.
   With two free cores the ratio stays near 1.0 unless the domains write
   shared cache lines on every read; the B+Tree, whose readers write
   nothing shared, is the control. Each index is loaded once, then the
   1- and 2-domain read phases alternate for [max 3 repeats] rounds; the
   row reports the median costs and the median of the per-round ratios,
   which share the host's drift and so move less than either cost. Each
   phase runs at least 2 M reads, so it outlasts domain start-up. *)
let domains scale =
  print_header
    "Per-read cost at 1 and 2 domains (read-only Rand-Int, one shared \
     index)";
  let module D = Drivers.Int in
  let cfg = wl_cfg { scale with ops = max scale.ops 2_000_000 } in
  let conv = D.K.of_workload W.Rand_int in
  let traces nthreads =
    Array.init nthreads (fun tid ->
        W.ops_trace cfg W.Rand_int W.Read_only ~tid ~nthreads conv)
  in
  let one_domain = traces 1 and two_domains = traces 2 in
  List.iter
    (fun (name, mk) ->
      let d : int Runner.driver = mk () in
      ignore (Runner.load d ~nthreads:1 (W.load_trace cfg W.Rand_int conv));
      let ns_per_read traces =
        float_of_int (Array.length traces) *. 1000.0 /. (Runner.run d traces).mops
      in
      let rounds =
        Array.init (max 3 scale.repeats) (fun _ ->
            let one = ns_per_read one_domain in
            (one, ns_per_read two_domains))
      in
      d.stop_aux ();
      let med f = Bw_util.Stats.median (Array.map f rounds) in
      print_row ~unit_:"ns/read; ratio" name
        [ ("1 domain", med fst); ("2 domains", med snd);
          ("2/1", med (fun (one, two) -> two /. one)) ])
    [ ("OpenBw-Tree", fun () -> D.bwtree ()); ("B+Tree", fun () -> D.btree ()) ]

(* ------------------------------------------------------------------ *)
(* CLI                                                                 *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig8", fig8); ("fig9", fig9); ("fig10", fig10); ("fig11", fig11);
    ("fig12", fig12); ("tab2", tab2); ("fig13", fig13); ("fig14", fig14);
    ("fig15", fig15); ("tab3", tab3); ("fig16", fig16); ("fig17", fig17);
    ("fig18", fig18); ("bech", bech); ("abl", abl); ("store", store);
    ("shards", shards_bench); ("batch", batch_bench);
    ("wal", wal_bench); ("domains", domains);
  ]

let () =
  let scale = ref quick_scale in
  let selected = ref [] in
  let metrics = ref false in
  let metrics_json = ref "" in
  let rec parse = function
    | [] -> ()
    | "--full" :: rest ->
        scale := full_scale;
        parse rest
    | "--metrics" :: rest ->
        metrics := true;
        parse rest
    | "--metrics-json" :: file :: rest ->
        metrics_json := file;
        parse rest
    | "--keys" :: n :: rest ->
        scale := { !scale with keys = int_of_string n };
        parse rest
    | "--ops" :: n :: rest ->
        scale := { !scale with ops = int_of_string n };
        parse rest
    | "--threads" :: n :: rest ->
        scale := { !scale with threads = int_of_string n };
        parse rest
    | "--repeats" :: n :: rest ->
        scale := { !scale with repeats = int_of_string n };
        parse rest
    | ("--help" | "-h") :: _ ->
        Printf.printf
          "usage: main.exe [EXPERIMENT..] [--keys N] [--ops N] [--threads N] \
           [--repeats N] [--full] [--metrics] [--metrics-json FILE]\n\
           experiments: %s\n"
          (String.concat " " (List.map fst experiments));
        exit 0
    | name :: rest when List.mem_assoc name experiments ->
        selected := !selected @ [ name ];
        parse rest
    | name :: _ ->
        Printf.eprintf "unknown experiment or option: %s\n" name;
        exit 1
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !metrics || !metrics_json <> "" then
    obs_sink := Bw_obs.To (Bw_obs.create ());
  let to_run = match !selected with [] -> List.map fst experiments | l -> l in
  let s = !scale in
  Printf.printf
    "OpenBw-Tree benchmark suite — keys=%d ops=%d threads=%d repeats=%d\n%!"
    s.keys s.ops s.threads s.repeats;
  let t0 = Unix.gettimeofday () in
  List.iter (fun name -> (List.assoc name experiments) s) to_run;
  Printf.printf "\nTotal bench time: %.1fs\n%!" (Unix.gettimeofday () -. t0);
  match !obs_sink with
  | Bw_obs.Null -> ()
  | Bw_obs.To reg ->
      let sn = Bw_obs.snapshot reg in
      if !metrics then Format.printf "%a@." Bw_obs.pp_snapshot sn;
      if !metrics_json <> "" then begin
        let oc = open_out !metrics_json in
        output_string oc (Bw_obs.snapshot_to_string sn);
        output_char oc '\n';
        close_out oc;
        Printf.printf "metrics: wrote %s\n%!" !metrics_json
      end
