(* YCSB-style index benchmark CLI — the paper's "testing framework" (§5)
   as a standalone tool.

   Examples:
     dune exec bin/ycsb.exe -- --index openbw --workload a --threads 8
     dune exec bin/ycsb.exe -- --index btree --workload e --keyspace email
     dune exec bin/ycsb.exe -- --index bw --workload insert --keys 1000000
     dune exec bin/ycsb.exe -- --list *)

open Cmdliner
module W = Workload
open Harness

let index_names =
  [ "bw"; "openbw"; "skiplist"; "skiplist-inline"; "masstree"; "btree"; "art" ]

(* The Bw-Tree drivers take the sink directly (the tree instruments its
   own operations, adding restart and chain-depth series); competitor
   drivers are wrapped so only operation latency is recorded. *)
let mk_driver (type k) (module D : Drivers.S with type key = k) ~bw_config
    name (obs : Bw_obs.sink) : k Runner.driver =
  match name with
  | "bw" -> D.bwtree ~name:"Bw-Tree" ?config:bw_config ~obs ()
  | "openbw" -> D.bwtree ?config:bw_config ~obs ()
  | "skiplist" -> Runner.instrument obs (D.skiplist ())
  | "skiplist-inline" ->
      Runner.instrument obs (D.skiplist ~policy:Skiplist.Inline ())
  | "masstree" -> Runner.instrument obs (D.masstree ())
  | "btree" -> Runner.instrument obs (D.btree ())
  | "art" -> Runner.instrument obs (D.art ())
  | _ -> invalid_arg "unknown index"

(* One registry for a single tree; one per shard for a forest. The text
   snapshot and the merged JSON totals are identical either way; a
   sharded run's JSON additionally carries shard<i>_-prefixed series. *)
let emit_metrics ~(regs : Bw_obs.t array) ~text ~json_file =
  if Array.length regs > 0 then begin
    let merged = Bw_obs.snapshot_all (Array.to_list regs) in
    if text then Format.printf "%a@." Bw_obs.pp_snapshot merged;
    Option.iter
      (fun file ->
        let body =
          if Array.length regs = 1 then Bw_obs.snapshot_to_string merged
          else
            let shards =
              Array.to_list
                (Array.mapi
                   (fun i r -> (Printf.sprintf "shard%d" i, Bw_obs.snapshot r))
                   regs)
            in
            Bw_obs.sharded_snapshot_to_string ~shards merged
        in
        let oc = open_out file in
        output_string oc body;
        output_char oc '\n';
        close_out oc;
        Printf.printf "metrics: wrote %s\n%!" file)
      json_file
  end

let run_generic (type k) (driver : k Runner.driver) ~(conv : int -> k) ~space
    ~mix ~threads ~batch ~cfg ~show_memory =
  Printf.printf "index: %s | workload: %s | keys: %s | threads: %d%s\n%!"
    driver.name
    (Format.asprintf "%a" W.pp_mix mix)
    (Format.asprintf "%a" W.pp_key_space space)
    threads
    (if batch > 1 then Printf.sprintf " | batch: %d" batch else "");
  let trace = W.load_trace cfg space conv in
  let load = Runner.load driver ~nthreads:threads trace in
  Printf.printf "load : %8d keys in %6.2fs = %7.3f Mops/s\n%!" load.ops
    load.seconds load.mops;
  (match mix with
  | W.Insert_only -> ()
  | _ ->
      let traces =
        Array.init threads (fun tid ->
            W.ops_trace cfg space mix ~tid ~nthreads:threads conv)
      in
      let r = Runner.run_batched driver ~batch traces in
      Printf.printf "run  : %8d ops  in %6.2fs = %7.3f Mops/s\n%!" r.ops
        r.seconds r.mops);
  driver.stop_aux ();
  if show_memory then
    Printf.printf "memory: %.2f MB live heap\n%!"
      (float_of_int (driver.memory_words () * 8) /. 1024.0 /. 1024.0)

let main index workload keyspace keys ops threads shards batch theta
    data_dir no_fsync show_memory metrics metrics_json list_ =
  if list_ then begin
    Printf.printf "indexes: %s\nworkloads: insert | c | a | e\nkeyspaces: \
                   mono | rand | email | hc\n"
      (String.concat " " index_names);
    exit 0
  end;
  let usage () =
    Printf.eprintf
      "usage: ycsb [--index INDEX] [--mix insert|c|a|e] [--keyspace \
       mono|rand|email|hc]\n\
      \            [--keys N>=1] [--ops N>=0] [--threads N>=1] [--shards \
       N>=1] [--batch N>=1] [--theta 0<F<1]\n\
       run 'ycsb --help' for details, 'ycsb --list' for indexes\n";
    exit 2
  in
  let mix =
    match W.mix_of_string workload with
    | Some m -> m
    | None ->
        Printf.eprintf "ycsb: unknown --mix %S (try: insert, c, a, e)\n"
          workload;
        usage ()
  in
  let space =
    match keyspace with
    | "mono" -> W.Mono_int
    | "rand" -> W.Rand_int
    | "email" -> W.Email
    | "hc" -> W.Mono_hc
    | s ->
        Printf.eprintf "ycsb: unknown --keyspace %S (try: mono, rand, email, \
                        hc)\n" s;
        usage ()
  in
  if not (List.mem index index_names) then begin
    Printf.eprintf "ycsb: unknown --index %S (try --list)\n" index;
    usage ()
  end;
  if keys < 1 then begin
    Printf.eprintf "ycsb: --keys must be >= 1 (got %d)\n" keys;
    usage ()
  end;
  if ops < 0 then begin
    Printf.eprintf "ycsb: --ops must be >= 0 (got %d)\n" ops;
    usage ()
  end;
  if threads < 1 then begin
    Printf.eprintf "ycsb: --threads must be >= 1 (got %d)\n" threads;
    usage ()
  end;
  if shards < 1 then begin
    Printf.eprintf "ycsb: --shards must be >= 1 (got %d)\n" shards;
    usage ()
  end;
  if batch < 1 then begin
    Printf.eprintf "ycsb: --batch must be >= 1 (got %d)\n" batch;
    usage ()
  end;
  if not (theta > 0.0 && theta < 1.0) then begin
    Printf.eprintf "ycsb: --theta must be in (0,1) (got %g)\n" theta;
    usage ()
  end;
  let cfg = { W.default_config with num_keys = keys; num_ops = ops; theta } in
  let regs =
    if metrics || metrics_json <> None then
      Array.init shards (fun _ -> Bw_obs.create ~stripes:(threads + 1) ())
    else [||]
  in
  let obs_of i =
    if Array.length regs = 0 then Bw_obs.Null else Bw_obs.To regs.(i)
  in
  (* --data-dir runs a durable Bw-Tree (recovery on open, group-commit
     WAL while running) so the WAL overhead is measurable against the
     in-memory build at the same --batch; the other indexes have no
     pagestore to write to. *)
  if data_dir <> None && not (List.mem index [ "bw"; "openbw" ]) then begin
    Printf.eprintf "ycsb: --data-dir requires a Bw-Tree index (bw, openbw)\n";
    usage ()
  end;
  let bw_config = if index = "bw" then Some Bwtree.microsoft_config else None in
  let fsync = not no_fsync in
  let durable_close = ref (fun () -> ()) in
  (* --shards 1 builds the single driver; N > 1 routes N instances of
     the same index through lib/shard, partitioned over the range the
     key space's keys occupy *)
  let module D = (val Drivers.of_key_space space) in
  let lo, hi = D.K.workload_range in
  let driver =
    match data_dir with
    | Some dir ->
        let dur =
          D.durable ?config:bw_config ~obs_of ?lo ?hi ~fsync ~shards ~dir ()
        in
        durable_close := dur.Drivers.dur_close;
        dur.Drivers.dur_driver
    | None ->
        D.shard ?lo ?hi ~shards (fun i ->
            mk_driver (module D) ~bw_config index (obs_of i))
  in
  run_generic driver ~conv:(D.K.of_workload space) ~space ~mix ~threads ~batch
    ~cfg ~show_memory;
  !durable_close ();
  emit_metrics ~regs ~text:metrics ~json_file:metrics_json

let cmd =
  let index =
    Arg.(value & opt string "openbw"
         & info [ "i"; "index" ] ~docv:"INDEX" ~doc:"Index to benchmark.")
  in
  let workload =
    Arg.(value & opt string "a"
         & info [ "w"; "workload"; "mix" ] ~docv:"MIX"
             ~doc:"Workload mix: insert, c (read-only), a (read/update), e \
                   (scan/insert).")
  in
  let keyspace =
    Arg.(value & opt string "rand"
         & info [ "k"; "keyspace" ] ~docv:"SPACE"
             ~doc:"Key space: mono, rand, email, hc.")
  in
  let keys =
    Arg.(value & opt int 100_000
         & info [ "keys" ] ~docv:"N" ~doc:"Keys loaded before measuring.")
  in
  let ops =
    Arg.(value & opt int 200_000
         & info [ "ops" ] ~docv:"N" ~doc:"Operations in the measured phase.")
  in
  let threads =
    Arg.(value & opt int 1
         & info [ "t"; "threads" ] ~docv:"N" ~doc:"Worker threads (domains).")
  in
  let shards =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"N"
             ~doc:"Range-partition the index into $(docv) shards behind \
                   the lib/shard router (1 = plain single index).")
  in
  let batch =
    Arg.(value & opt int 1
         & info [ "b"; "batch" ] ~docv:"N"
             ~doc:"Submit point operations in batches of $(docv) through \
                   the index's batch path (1 = per-op submission).")
  in
  let theta =
    Arg.(value & opt float 0.99
         & info [ "theta" ] ~docv:"F" ~doc:"Zipfian skew in (0,1).")
  in
  let data_dir =
    Arg.(value & opt (some string) None
         & info [ "data-dir" ] ~docv:"DIR"
             ~doc:"Run a durable Bw-Tree out of $(docv) (bw/openbw only): \
                   recovery on open, group-commit WAL per batch while \
                   running. Compare against the same run without \
                   $(docv) to measure the WAL overhead.")
  in
  let no_fsync =
    Arg.(value & flag
         & info [ "no-fsync" ]
             ~doc:"With --data-dir: append to the WAL but skip the \
                   per-commit fsync.")
  in
  let memory =
    Arg.(value & flag
         & info [ "m"; "memory" ] ~doc:"Report live-heap memory afterwards.")
  in
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Collect latency/structural metrics and print a snapshot.")
  in
  let metrics_json =
    Arg.(value & opt (some string) None
         & info [ "metrics-json" ] ~docv:"FILE"
             ~doc:"Collect metrics and write a JSON snapshot to $(docv).")
  in
  let list_ =
    Arg.(value & flag & info [ "list" ] ~doc:"List indexes and exit.")
  in
  let term =
    Term.(
      const main $ index $ workload $ keyspace $ keys $ ops $ threads
      $ shards $ batch $ theta $ data_dir $ no_fsync $ memory
      $ metrics $ metrics_json $ list_)
  in
  Cmd.v
    (Cmd.info "ycsb" ~doc:"YCSB-style microbenchmarks for in-memory indexes"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs the workloads of 'Building a Bw-Tree Takes More Than Just \
              Buzz Words' (SIGMOD 2018) against any of the six in-memory \
              index structures implemented in this repository.";
         ])
    term

let () = exit (Cmd.eval cmd)
