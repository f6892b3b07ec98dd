(* Structural inspector: load a workload into an OpenBw-Tree (or the
   baseline Bw-Tree) and report Table 2-style statistics in depth —
   delta-chain and node-occupancy histograms, operation counters,
   mapping-table growth, memory — plus an optional full physical dump.

   With --shards N the load goes through the lib/shard partition into a
   forest of N trees; each shard reports its own summary (key count,
   shape, mapping table, memory) and the histograms/counters below them
   are forest-wide totals.

   With --data-dir the inspector skips the synthetic load and instead
   opens a durable store read-only (safe against a live server owning
   the same directory): per shard it reports what recovery found —
   generation, snapshot pages and items, WAL records and replayed ops,
   torn bytes truncated — plus the recovered tree's shape and memory.

   Examples:
     dune exec bin/bwt_inspect.exe -- --keys 100000 --keyspace rand
     dune exec bin/bwt_inspect.exe -- --baseline --threads 8 --keyspace hc
     dune exec bin/bwt_inspect.exe -- --keys 200 --dump
     dune exec bin/bwt_inspect.exe -- --shards 4 --keyspace rand
     dune exec bin/bwt_inspect.exe -- --data-dir /var/tmp/bwt --shards 4 *)

module Tree = Harness.Drivers.Int.Bw
module W = Workload
module H = Bw_obs.Histo

(* One bar per non-empty bucket: exact below 16, ranges of at most 12.5%
   of their value above. *)
let pp_histo ~width ppf h =
  if H.count h = 0 then Format.fprintf ppf "(empty)@."
  else begin
    let bs = H.buckets h in
    let biggest = List.fold_left (fun m (_, _, n) -> max m n) 1 bs in
    List.iter
      (fun (lo, hi, n) ->
        let label =
          if lo = hi then Printf.sprintf "%6d" lo
          else Printf.sprintf "%5d-%-5d" lo hi
        in
        Format.fprintf ppf "%s | %-7d %s@." label n
          (String.make (max 1 (n * width / biggest)) '#'))
      bs
  end

(* --data-dir mode: read-only recovery of every shard, then a per-shard
   report. Mirrors the server's layout: one store at the root for a
   single shard, [shard-<i>] subdirectories for a forest. *)
let inspect_durable ~dir ~shards ~key_type ~config ~dump =
  let module D =
    (val try Harness.Drivers.of_key_type key_type
         with Invalid_argument m ->
           Printf.eprintf "bwt_inspect: %s\n" m;
           exit 1)
  in
  if not (Sys.file_exists dir) then begin
    Printf.eprintf "bwt_inspect: no such directory %s\n" dir;
    exit 1
  end;
  (* where a forest keeps shard 0 *)
  if shards = 1 && Sys.file_exists (Pagestore.Store.shard_dir dir ~shards:2 0)
  then
    Printf.printf
      "note: %s holds shard subdirectories; pass --shards N to read them\n\n"
      dir;
  let label i = if shards = 1 then "store" else Printf.sprintf "shard %d" i in
  let total_keys = ref 0 and total_mem = ref 0 and missing = ref 0 in
  for i = 0 to shards - 1 do
    let sdir = Pagestore.Store.shard_dir dir ~shards i in
    match D.Durable.inspect_dir ~config ~dir:sdir () with
    | None ->
        incr missing;
        Printf.printf "%s: nothing loadable in %s\n" (label i) sdir
    | Some (tree, rs) ->
        Format.printf "%s: recovered %a@." (label i) Pagestore.Store.pp_stats
          rs;
        let ss = D.Bw.structure_stats tree in
        let keys = D.Bw.cardinal tree and mem_words = D.Bw.memory_words tree in
        Printf.printf
          "%s: %8d keys | height %d | %4d inner + %6d leaf | LDCL %.2f | \
           %7.2f MB\n"
          (label i) keys ss.depth ss.inner_nodes ss.leaf_nodes
          ss.avg_leaf_chain
          (float_of_int (mem_words * 8) /. 1024. /. 1024.);
        total_keys := !total_keys + keys;
        total_mem := !total_mem + mem_words;
        if dump then D.Bw.dump tree Format.std_formatter
  done;
  if shards > 1 then
    Printf.printf "forest totals: %d keys | %.2f MB live\n" !total_keys
      (float_of_int (!total_mem * 8) /. 1024. /. 1024.);
  if !missing > 0 then exit 1

let () =
  let keys = ref 100_000
  and threads = ref 1
  and keyspace = ref "rand"
  and shards = ref 1
  and baseline = ref false
  and data_dir = ref ""
  and key_type = ref "int"
  and dump = ref false in
  let args =
    [
      ("--keys", Arg.Set_int keys, "N  keys to load (default 100000)");
      ("--threads", Arg.Set_int threads, "N  loader domains (default 1)");
      ( "--keyspace",
        Arg.Set_string keyspace,
        "S  mono | rand | hc (default rand)" );
      ( "--shards",
        Arg.Set_int shards,
        "N  range-partition the load over N trees (default 1)" );
      ("--baseline", Arg.Set baseline, "   use the baseline Bw-Tree config");
      ( "--data-dir",
        Arg.Set_string data_dir,
        "DIR  open a durable store read-only and report recovery per shard \
         (no load)" );
      ( "--key-type",
        Arg.Set_string key_type,
        "T  with --data-dir: int | str (default int)" );
      ("--dump", Arg.Set dump, "   print every logical node and chain");
    ]
  in
  Arg.parse args (fun _ -> ()) "bwt_inspect [options]";
  if !shards < 1 then begin
    Printf.eprintf "bwt_inspect: --shards must be >= 1\n";
    exit 1
  end;
  let config =
    if !baseline then Bwtree.microsoft_config else Bwtree.default_config
  in
  if !data_dir <> "" then begin
    inspect_durable ~dir:!data_dir ~shards:!shards ~key_type:!key_type
      ~config ~dump:!dump;
    exit 0
  end;
  let n_shards = !shards in
  let nthreads = max 1 !threads in
  (* one registry per shard, a stripe per loader: op_stats reads a tree's
     registry, and the totals below sum over the shards *)
  let trees =
    Array.init n_shards (fun _ ->
        Tree.create ~config
          ~obs:(Bw_obs.sink (Bw_obs.create ~stripes:nthreads ()))
          ())
  in
  (* a tree's reachable words include its registry; report the structure
     alone *)
  let registry_words =
    Obj.reachable_words (Obj.repr (Bw_obs.create ~stripes:nthreads ()))
  in
  let tree_words t = Tree.memory_words t - registry_words in
  (* mono keys are dense in [0, keys); rand/hc scramble over the whole
     non-negative range — partition what the load will actually cover
     so the shard summaries show the balance *)
  let part =
    match !keyspace with
    | "mono" -> Harness.Drivers.Int.K.part ~hi:(max 1 (!keys - 1)) n_shards
    | _ -> Harness.Drivers.Int.K.part n_shards
  in
  let tree_of k = trees.(Harness.Drivers.Int.K.shard_of part k) in
  Array.iter (fun t -> Tree.start_gc_thread t ()) trees;
  let spawn f =
    let ds = Array.init nthreads (fun tid -> Domain.spawn (fun () -> f tid)) in
    Array.iter Domain.join ds
  in
  let quiesce_all ~tid = Array.iter (fun t -> Tree.quiesce t ~tid) trees in
  (match !keyspace with
  | "hc" ->
      let hc = W.Hc.create ~nthreads in
      let per = !keys / nthreads in
      spawn (fun tid ->
          for i = 1 to per do
            let k = W.Hc.next hc ~tid in
            ignore (Tree.insert (tree_of k) ~tid k i)
          done;
          quiesce_all ~tid)
  | ks ->
      let conv =
        match ks with
        | "mono" -> W.Keys.mono_int
        | "rand" -> W.Keys.rand_int
        | other ->
            Printf.eprintf "unknown keyspace %s\n" other;
            exit 1
      in
      let n = !keys in
      spawn (fun tid ->
          let i = ref tid in
          while !i < n do
            let k = conv !i in
            ignore (Tree.insert (tree_of k) ~tid k !i);
            i := !i + nthreads
          done;
          quiesce_all ~tid));
  Array.iter Tree.stop_gc_thread trees;

  Printf.printf "configuration: %s | %d keys (%s) | %d loader threads%s\n\n"
    (if !baseline then "baseline Bw-Tree" else "OpenBw-Tree")
    !keys !keyspace nthreads
    (if n_shards > 1 then Printf.sprintf " | %d shards" n_shards else "");

  if n_shards = 1 then begin
    let ss = Tree.structure_stats trees.(0) in
    Printf.printf
      "height %d | %d inner + %d leaf logical nodes\n\
       IDCL %.2f | LDCL %.2f | INS %.2f | LNS %.2f | IPU %.1f%% | LPU %.1f%%\n\n"
      ss.depth ss.inner_nodes ss.leaf_nodes ss.avg_inner_chain
      ss.avg_leaf_chain ss.avg_inner_size ss.avg_leaf_size
      (100. *. ss.inner_prealloc_util)
      (100. *. ss.leaf_prealloc_util)
  end
  else begin
    Array.iteri
      (fun i t ->
        let ss = Tree.structure_stats t in
        Printf.printf
          "shard %d: %8d keys | height %d | %4d inner + %6d leaf | LDCL \
           %.2f | %7.2f MB\n"
          i (Tree.cardinal t) ss.depth ss.inner_nodes ss.leaf_nodes
          ss.avg_leaf_chain
          (float_of_int (tree_words t * 8) /. 1024. /. 1024.);
        Format.printf "         %a@." Bwtree.pp_mapping_stats
          (Tree.mapping_table_stats t))
      trees;
    print_newline ();
    Printf.printf "forest totals:\n"
  end;

  let leaf_chain = H.create ()
  and leaf_size = H.create ()
  and inner_size = H.create () in
  Array.iter
    (fun t ->
      Tree.iter_nodes t (fun ~leaf ~chain ~size ->
          if leaf then begin
            H.add leaf_chain chain;
            H.add leaf_size size
          end
          else H.add inner_size size))
    trees;
  Format.printf "leaf delta-chain lengths (p50=%d p99=%d max=%d):@.%a@."
    (H.quantile leaf_chain 0.50)
    (H.quantile leaf_chain 0.99)
    (H.max_value leaf_chain) (pp_histo ~width:36) leaf_chain;
  Format.printf "leaf occupancy (items; p50=%d max=%d):@.%a@."
    (H.quantile leaf_size 0.50)
    (H.max_value leaf_size) (pp_histo ~width:36) leaf_size;
  Format.printf "inner fan-out:@.%a@." (pp_histo ~width:36) inner_size;

  let sum f = Array.fold_left (fun acc t -> acc + f t) 0 trees in
  Printf.printf
    "ops: %d inserts | %d splits | %d merges | %d consolidations (%d by \
     reads) | %d failed CaS | %d restarts | %d SMO helps\n"
    (sum (fun t -> (Tree.op_stats t).inserts))
    (sum (fun t -> (Tree.op_stats t).splits))
    (sum (fun t -> (Tree.op_stats t).merges))
    (sum (fun t -> (Tree.op_stats t).consolidations))
    (sum (fun t -> (Tree.op_stats t).read_consolidations))
    (sum (fun t -> (Tree.op_stats t).failed_cas))
    (sum (fun t -> (Tree.op_stats t).restarts))
    (sum (fun t -> (Tree.op_stats t).smo_helps));
  if n_shards = 1 then
    Format.printf "%a@." Bwtree.pp_mapping_stats
      (Tree.mapping_table_stats trees.(0));
  Printf.printf "memory: %.2f MB live\n"
    (float_of_int (sum tree_words * 8) /. 1024. /. 1024.);
  let esum f =
    Array.fold_left (fun acc t -> acc + f (Epoch.stats (Tree.epoch t))) 0 trees
  in
  Printf.printf "epochs: %d entered | %d retired | %d reclaimed | %d advanced\n"
    (esum (fun e -> e.Epoch.enters))
    (esum (fun e -> e.Epoch.retired))
    (esum (fun e -> e.Epoch.reclaimed))
    (esum (fun e -> e.Epoch.epochs_advanced));
  (* named as the server's STATS gauges name them *)
  let gc = Gc.quick_stat () in
  Printf.printf "runtime: %s %d | %s %d\n"
    (Bw_obs.gauge_name Bw_obs.G_gc_minor_collections)
    gc.minor_collections
    (Bw_obs.gauge_name Bw_obs.G_gc_major_collections)
    gc.major_collections;
  if !dump then
    Array.iteri
      (fun i t ->
        print_newline ();
        if n_shards > 1 then Printf.printf "-- shard %d --\n" i;
        Tree.dump t Format.std_formatter)
      trees
