(* Long-running multi-domain stress driver over the Bw_stress harness.

   Examples:
     dune exec bin/stress.exe -- --short
     dune exec bin/stress.exe -- --seconds 60 --domains 8 --scheme centralized
     dune exec bin/stress.exe -- --index skiplist --seconds 10
     dune exec bin/stress.exe -- --non-unique --seconds 30

   Exits non-zero if any invariant was violated, so it can gate CI. *)

let short = ref false
let seconds = ref 10.0
let domains = ref 4
let churn = ref 2
let keys = ref 1024
let ops = ref 5_000
let seed = ref 1
let scheme = ref "decentralized"
let index = ref "openbw"
let shards = ref 1
let batch = ref 1
let unique = ref true
let quiet = ref false
let metrics = ref false
let metrics_json = ref ""
let crash = ref false
let crash_rounds = ref 3
let crash_dir = ref ""
let fsync = ref false
let read_heavy = ref false
let leaf_chain_max = ref None

let speclist =
  [
    ("--short", Arg.Set short, " run the dune-runtest-sized configuration");
    ( "--seconds",
      Arg.Set_float seconds,
      "S wall-clock budget for the long mode (default 10)" );
    ("--domains", Arg.Set_int domains, "N worker domains (default 4)");
    ("--churn", Arg.Set_int churn, "N mapping-table churn domains (default 2)");
    ("--keys", Arg.Set_int keys, "N keys per worker stripe (default 1024)");
    ( "--ops",
      Arg.Set_int ops,
      "N operations per worker between invariant barriers (default 5000)" );
    ("--seed", Arg.Set_int seed, "N rng seed (default 1)");
    ( "--scheme",
      Arg.Set_string scheme,
      "S epoch scheme: centralized | decentralized | disabled" );
    ( "--index",
      Arg.Set_string index,
      "S subject: openbw | bw | skiplist | btree | art | masstree" );
    ( "--shards",
      Arg.Set_int shards,
      "N range-partition the subject into N shards (default 1; runs the \
       oracle-replay invariants against a lib/shard forest)" );
    ( "--batch",
      Arg.Set_int batch,
      "N submit point ops through the subject's batch path in groups of N \
       (default 1 = per-op)" );
    ("--non-unique", Arg.Clear unique, " stress the non-unique key support");
    ( "--leaf-chain-max",
      Arg.Int
        (fun n ->
          if n < 1 then raise (Arg.Bad "--leaf-chain-max must be >= 1");
          leaf_chain_max := Some n),
      "N openbw/bw leaf delta-chain threshold (default: the index's own); \
       a small N makes slot exhaustion, wasted slots and slab re-creation \
       after consolidation frequent" );
    ( "--crash",
      Arg.Set crash,
      " crash-recovery mode: checkpoint a durable pagestore, crash it \
       mid-load, corrupt the WAL tail, recover, and check prefix \
       consistency (uses --domains/--keys/--ops/--shards/--batch/--seed)" );
    ( "--crash-rounds",
      Arg.Set_int crash_rounds,
      "N independent crash/recover cycles in --crash mode (default 3)" );
    ( "--crash-dir",
      Arg.Set_string crash_dir,
      "DIR scratch data dir for --crash (default: fresh dir under TMPDIR)" );
    ( "--fsync",
      Arg.Set fsync,
      " in --crash mode, fsync every group commit (slower, exercises the \
       durable ack path)" );
    ( "--read-heavy",
      Arg.Set read_heavy,
      " one writer, every other worker a reader (point lookups of the \
       writer's keys) instead of all workers mixed" );
    ("--quiet", Arg.Set quiet, " suppress per-phase progress lines");
    ( "--metrics",
      Arg.Set metrics,
      " collect observability metrics and print a snapshot" );
    ( "--metrics-json",
      Arg.Set_string metrics_json,
      "FILE collect metrics and write a JSON snapshot to FILE" );
  ]

let usage = "stress [options]: multi-domain invariant-checking stress run"

let () =
  Arg.parse (Arg.align speclist)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let gc_scheme =
    match !scheme with
    | "centralized" -> Epoch.Centralized
    | "decentralized" -> Epoch.Decentralized
    | "disabled" -> Epoch.Disabled
    | s -> raise (Arg.Bad ("unknown scheme " ^ s))
  in
  if !batch < 1 then raise (Arg.Bad "--batch must be >= 1");
  if !crash then begin
    let dir =
      if !crash_dir <> "" then !crash_dir
      else Filename.concat (Filename.get_temp_dir_name ()) "bwt-stress-crash"
    in
    let base = Bw_stress.short_crash_config ~dir in
    let cfg =
      if !short then { base with cc_verbose = not !quiet }
      else
        {
          base with
          Bw_stress.cc_domains = !domains;
          cc_keys_per_domain = !keys;
          cc_ops_per_phase = !ops;
          cc_batch = !batch;
          cc_shards = !shards;
          cc_fsync = !fsync;
          cc_rounds = !crash_rounds;
          cc_seed = !seed;
          cc_verbose = not !quiet;
        }
    in
    Printf.printf
      "stress --crash: %d domains | %d shards | batch %d | %d rounds | %s\n%!"
      cfg.Bw_stress.cc_domains cfg.Bw_stress.cc_shards cfg.Bw_stress.cc_batch
      cfg.Bw_stress.cc_rounds
      (if cfg.Bw_stress.cc_fsync then "fsync" else "no fsync");
    let r = Bw_stress.run_crash_recovery cfg in
    Format.printf "%a@." Bw_stress.pp_crash_report r;
    exit (if r.Bw_stress.cr_violations <> [] then 1 else 0)
  end;
  let base =
    if !read_heavy then Bw_stress.read_heavy_config else Bw_stress.short_config
  in
  let cfg =
    if !short then { base with batch = !batch; verbose = not !quiet }
    else
      {
        base with
        domains = !domains;
        readers = (if !read_heavy then max 0 (!domains - 1) else 0);
        churn_domains = !churn;
        keys_per_domain = !keys;
        ops_per_phase = !ops;
        time_budget_s = Some !seconds;
        seed = !seed;
        batch = !batch;
        verbose = not !quiet;
      }
  in
  let obs =
    if !metrics || !metrics_json <> "" then Bw_obs.To (Bw_obs.create ())
    else Bw_obs.Null
  in
  if !shards < 1 then raise (Arg.Bad "--shards must be >= 1");
  if !shards > 1 && not !unique then
    raise (Arg.Bad "--non-unique is only supported with --shards 1");
  (* a forest subject goes through the driver interface (probe-less, so
     the epoch/gauge cross-checks are skipped) but the journal-replay,
     keyspace-sweep and scan invariants all run against the router;
     partitioning the stress keyspace itself spreads the stripes over
     every shard and makes the sweeps genuinely cross-shard *)
  let module D = Harness.Drivers.Int in
  let forest mk =
    let keyspace = cfg.Bw_stress.domains * cfg.Bw_stress.keys_per_domain in
    D.shard ~hi:(keyspace - 1) ~shards:!shards (fun _ -> mk ())
  in
  let subject =
    match !index with
    | "openbw" | "bw" ->
        let base =
          if !index = "bw" then Bwtree.microsoft_config
          else Bwtree.default_config
        in
        let config =
          {
            base with
            gc_scheme;
            unique_keys = !unique;
            leaf_chain_max =
              Option.value !leaf_chain_max ~default:base.leaf_chain_max;
          }
        in
        if !shards = 1 then
          Bw_stress.bwtree_subject ~config ~obs
            ~domains:cfg.Bw_stress.domains ()
        else
          Bw_stress.of_driver
            (forest (fun () ->
                 D.bwtree ~config ~obs ()))
    | "skiplist" ->
        Bw_stress.of_driver
          (forest (fun () -> D.skiplist ()))
    | "btree" ->
        Bw_stress.of_driver
          (forest (fun () -> D.btree ()))
    | "art" ->
        Bw_stress.of_driver
          (forest (fun () -> D.art ()))
    | "masstree" ->
        Bw_stress.of_driver
          (forest (fun () -> D.masstree ()))
    | s -> raise (Arg.Bad ("unknown index " ^ s))
  in
  Printf.printf
    "stress: %s | %d domains + %d churn | scheme %s | %s keys%s\n%!"
    subject.Bw_stress.s_name cfg.Bw_stress.domains
    cfg.Bw_stress.churn_domains !scheme
    (if !unique then "unique" else "non-unique")
    (if !batch > 1 then Printf.sprintf " | batch %d" !batch else "");
  let r = Bw_stress.run cfg subject in
  Format.printf "%a@." Bw_stress.pp_report r;
  (match obs with
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
      end);
  if r.Bw_stress.r_violations <> [] then exit 1
