(** Benchmark driver: regenerates every table and figure of the paper's
    evaluation (§5 experiments on the OpenBw-Tree's optimizations, §6
    cross-index comparison, §6.3 decomposition).

    Usage: [dune exec bench/main.exe -- [EXPERIMENT..] [OPTIONS]]

    Experiments: fig8 fig9 fig10 fig11 fig12 tab2 fig13 fig14 fig15 tab3
    fig16 fig17 fig18 (default: all).

    Options: [--keys N] [--ops N] [--threads N] [--repeats N] [--full]

    Every throughput cell runs once per round for [--repeats] rounds, the
    cells of a row alternating their order between rounds
    ({!Harness.Runner.rounds}), and prints its median and quartiles.
    Tables 2 and 3 and Figs. 15 and 16 print counts and run once.

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

let quick_scale = { keys = 30_000; ops = 60_000; threads = 8; repeats = 3 }
let full_scale = { keys = 500_000; ops = 1_000_000; threads = 16; repeats = 3 }

let wl_cfg scale =
  { W.default_config with num_keys = scale.keys; num_ops = scale.ops }

(* Print one row of timed cells (see {!Runner.timed_row}). *)
let row ?unit_ ?ratio scale label cells =
  print_endline
    (Runner.timed_row ?unit_ ?ratio ~repeats:scale.repeats label cells)

(* ------------------------------------------------------------------ *)
(* Generic workload execution                                          *)
(* ------------------------------------------------------------------ *)

(* Load the key set, then (for non-insert mixes) run the measured phase. *)
let run_workload (driver : 'k Runner.driver) ~(conv : int -> 'k) ~space ~mix
    ~nthreads scale =
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
        Runner.run driver traces
  in
  driver.stop_aux ();
  res

(* A timed cell: each call runs the workload on a fresh driver and
   returns its Mops/s. *)
let mops_of ~mkdriver ~conv ~space ~mix ~nthreads scale () =
  (run_workload (mkdriver ()) ~conv ~space ~mix ~nthreads scale).mops

let all_mixes = [ W.Insert_only; W.Read_only; W.Read_update; W.Scan_insert ]
let int_spaces = [ W.Mono_int; W.Rand_int ]
let all_spaces = int_spaces @ [ W.Email ]
let space_name space = Format.asprintf "%a" W.pp_key_space space
let mix_name mix = Format.asprintf "%a" W.pp_mix mix

(* one (space, mix) cell for a Bw-Tree of the given config, keyed by the
   space's key type *)
let cell ~config ~space ~mix ~nthreads scale =
  let module D = (val Drivers.of_key_space space) in
  mops_of
    ~mkdriver:(fun () -> D.bwtree ~config ())
    ~conv:(D.K.of_workload space) ~space ~mix ~nthreads scale

(* Figs. 8 and 9: one optimization off and on, single-threaded, every
   mix on every key space. *)
let on_off scale ~base ~off ~on =
  let opt = Bwtree.default_config in
  List.iter
    (fun space ->
      Printf.printf "-- %s keys --\n%!" (space_name space);
      List.iter
        (fun mix ->
          let run config = cell ~config ~space ~mix ~nthreads:1 scale in
          row scale (mix_name mix) ~ratio:("speedup", 1, 0)
            [ (off, run base); (on, run opt) ])
        all_mixes)
    all_spaces

(* ------------------------------------------------------------------ *)
(* §5.2 Figure 8: delta-record pre-allocation (single-threaded)        *)
(* ------------------------------------------------------------------ *)

let fig8 scale =
  print_header
    "Figure 8: Delta Record Pre-allocation (single-threaded, \
     independently-allocated vs pre-allocated)";
  on_off scale
    ~base:(Bwtree.Config.make ~preallocate:false ())
    ~off:"indep" ~on:"prealloc"

(* ------------------------------------------------------------------ *)
(* §5.3 Figure 9: fast consolidation & search shortcuts                *)
(* ------------------------------------------------------------------ *)

let fig9 scale =
  print_header
    "Figure 9: Fast Consolidation & Search Shortcuts (single-threaded, \
     off vs on)";
  on_off scale
    ~base:
      (Bwtree.Config.make ~fast_consolidation:false ~search_shortcuts:false ())
    ~off:"no FC&SS" ~on:"FC&SS"

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
      let pairs scheme () =
        let e = Epoch.create ~scheme ~max_threads:nthreads () in
        let per = iters / nthreads in
        let seconds =
          Runner.run_phase ~nthreads (fun tid ->
              for _ = 1 to per do
                Epoch.op_begin e ~tid;
                Epoch.op_end e ~tid
              done)
        in
        Bw_util.Stats.throughput_mops ~ops:(per * nthreads) ~seconds
      in
      row scale ~unit_:"M enter+exit/s"
        (Printf.sprintf "%d threads" nthreads)
        [ ("centralized", pairs Epoch.Centralized);
          ("decentralized", pairs Epoch.Decentralized) ])
    [ 1; scale.threads ]

let fig10 scale =
  print_header
    "Figure 10: GC Scalability (Read/Update; centralized vs decentralized \
     epochs; thread sweep)";
  let threads = [ 1; 2; 4; scale.threads ] in
  let centralized = Bwtree.Config.make ~gc_scheme:Epoch.Centralized () in
  let decentralized = Bwtree.default_config in
  List.iter
    (fun space ->
      Printf.printf "-- %s keys --\n%!" (space_name space);
      List.iter
        (fun nthreads ->
          let run config =
            cell ~config ~space ~mix:W.Read_update ~nthreads scale
          in
          row scale
            (Printf.sprintf "%d threads" nthreads)
            ~ratio:("ratio", 1, 0)
            [ ("centralized", run centralized);
              ("decentralized", run decentralized) ])
        threads)
    all_spaces;
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
      Printf.printf "-- %s --\n%!" (mix_name mix);
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
                ( Printf.sprintf "node=%d" ns,
                  cell ~config ~space:W.Mono_int ~mix
                    ~nthreads:scale.threads scale ))
              node_sizes
          in
          row scale (Printf.sprintf "chain=%d" chain) cells)
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
      row scale
        (Printf.sprintf "%d thread(s)" nthreads)
        (List.map
           (fun (label, config) ->
             ( label,
               cell ~config ~space:W.Rand_int ~mix:W.Read_update ~nthreads
                 scale ))
           steps))
    [ 1; scale.threads ];
  print_header "Figure 12b: Bw-Tree vs OpenBw-Tree (Mono-Int, multi-threaded)";
  List.iter
    (fun mix ->
      let run config =
        cell ~config ~space:W.Mono_int ~mix ~nthreads:scale.threads scale
      in
      row scale (mix_name mix) ~ratio:("speedup", 1, 0)
        [ ("Bw-Tree", run Bwtree.microsoft_config);
          ("OpenBw-Tree", run Bwtree.default_config) ])
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
  { Runner.ops; seconds; mops = Bw_util.Stats.throughput_mops ~ops ~seconds }

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
      (space_name space)
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
      Printf.printf "-- %s keys --\n%!" (space_name space);
      List.iter
        (fun mix ->
          let module D = (val Drivers.of_key_space space) in
          row scale (mix_name mix)
            (List.map
               (fun (name, mk) ->
                 ( name,
                   mops_of ~mkdriver:mk ~conv:(D.K.of_workload space) ~space
                     ~mix ~nthreads scale ))
               (D.lineup ())))
        all_mixes)
    all_spaces

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
          print_row ~unit_:"MB" (space_name space) cells)
        all_spaces)
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
      let hc () =
        (hc_insert_run (mk ()) ~nthreads:scale.threads ~ops:scale.keys).mops
      in
      row scale name ~ratio:("degradation x", 0, 1)
        [
          ( "mono-int",
            mops_of ~mkdriver:mk ~conv:(W.int_key_of W.Mono_int)
              ~space:W.Mono_int ~mix:W.Insert_only ~nthreads:scale.threads
              scale );
          ("high-contention", hc);
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
  let load_trace = W.load_trace cfg W.Rand_int conv in
  let reads = W.ops_trace cfg W.Rand_int W.Read_only ~tid:0 ~nthreads:1 conv in
  let mops_of_reads f =
    let seconds = Runner.run_phase ~nthreads:1 (fun _ -> f ()) in
    Bw_util.Stats.throughput_mops ~ops:(Array.length reads) ~seconds
  in
  let loaded_tree config =
    let tree = Drivers.Int.Bw.create ~config () in
    let d = Drivers.Int.driver_of_tree ~name:"bw" tree in
    ignore (Runner.load d ~nthreads:1 load_trace);
    d.stop_aux ();
    (tree, d)
  in
  let insert_mops config =
    cell ~config ~space:W.Rand_int ~mix:W.Insert_only ~nthreads:1 scale
  in
  let read_mops ?(prep = ignore) config () =
    let tree, d = loaded_tree config in
    prep tree;
    mops_of_reads (fun () ->
        Array.iter (fun op -> Runner.exec_op d ~tid:0 op) reads)
  in
  (* -MT: frozen direct-pointer tree (no mapping table, no chains) *)
  let frozen_read_mops () =
    let tree, _ = loaded_tree Bwtree.default_config in
    let frozen = Drivers.Int.Bw.freeze tree in
    mops_of_reads (fun () ->
        Array.iter
          (function
            | W.Read k -> ignore (Drivers.Int.Bw.frozen_lookup frozen k)
            | _ -> ())
          reads)
  in
  (* the paper's OpenBw-Tree: only writers consolidate, so reads pay for
     the chains a load leaves behind *)
  let base = { Bwtree.default_config with read_consolidation = false } in
  let nocas = { base with use_atomic_cas = false } in
  let btree mix =
    mops_of
      ~mkdriver:(fun () -> Drivers.Int.btree ())
      ~conv ~space:W.Rand_int ~mix ~nthreads:1 scale
  in
  List.iter
    (fun (label, cells) -> row scale label cells)
    [
      ( "OpenBw-Tree",
        [ ("insert", insert_mops base); ("read", read_mops base) ] );
      ( "+read consolidation (default)",
        [ ("read", read_mops Bwtree.default_config) ] );
      ( "-DC (no delta chains)",
        [ ("read", read_mops ~prep:Drivers.Int.Bw.consolidate_all base) ] );
      ( "-CAS (plain compare+store)",
        [ ("insert", insert_mops nocas); ("read", read_mops nocas) ] );
      ("-MT (direct pointers)", [ ("read", frozen_read_mops) ]);
      ( "-DU (in-place leaf updates)",
        [ ("insert", insert_mops { base with inplace_leaf_update = true }) ] );
      ( "B+Tree (OLC)",
        [ ("insert", btree W.Insert_only); ("read", btree W.Read_only) ] );
    ]

(* ------------------------------------------------------------------ *)
(* CLI                                                                 *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig8", fig8); ("fig9", fig9); ("fig10", fig10); ("fig11", fig11);
    ("fig12", fig12); ("tab2", tab2); ("fig13", fig13); ("fig14", fig14);
    ("fig15", fig15); ("tab3", tab3); ("fig16", fig16); ("fig17", fig17);
    ("fig18", fig18);
  ]

let usage =
  Printf.sprintf
    "usage: main.exe [EXPERIMENT..] [--keys N] [--ops N] [--threads N] \
     [--repeats N] [--full]\n\
     experiments: %s\n"
    (String.concat " " (List.map fst experiments))

let () =
  let scale = ref quick_scale in
  let selected = ref [] in
  let bad msg =
    Printf.eprintf "main.exe: %s\n%s%!" msg usage;
    exit 2
  in
  let positive flag n =
    match int_of_string_opt n with
    | Some v when v > 0 -> v
    | _ -> bad (Printf.sprintf "%s expects a positive integer, got %S" flag n)
  in
  let rec parse = function
    | [] -> ()
    | "--full" :: rest ->
        scale := full_scale;
        parse rest
    | "--keys" :: n :: rest ->
        scale := { !scale with keys = positive "--keys" n };
        parse rest
    | "--ops" :: n :: rest ->
        scale := { !scale with ops = positive "--ops" n };
        parse rest
    | "--threads" :: n :: rest ->
        scale := { !scale with threads = positive "--threads" n };
        parse rest
    | "--repeats" :: n :: rest ->
        scale := { !scale with repeats = positive "--repeats" n };
        parse rest
    | ("--help" | "-h") :: _ ->
        print_string usage;
        exit 0
    | name :: rest when List.mem_assoc name experiments ->
        selected := !selected @ [ name ];
        parse rest
    | name :: _ ->
        bad ("unknown experiment or option, or missing value: " ^ name)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let to_run = match !selected with [] -> List.map fst experiments | l -> l in
  let s = !scale in
  Printf.printf
    "OpenBw-Tree benchmark suite — keys=%d ops=%d threads=%d repeats=%d\n%!"
    s.keys s.ops s.threads s.repeats;
  let t0 = Unix.gettimeofday () in
  List.iter (fun name -> (List.assoc name experiments) s) to_run;
  Printf.printf "\nTotal bench time: %.1fs\n%!" (Unix.gettimeofday () -. t0)
