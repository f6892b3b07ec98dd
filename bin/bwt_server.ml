(* Networked Bw-Tree server: serves one index instance over the binary
   wire protocol (lib/server), with a metrics registry always on so the
   STATS frame and the shutdown snapshot have something to say.

   Examples:
     dune exec bin/bwt_server.exe -- --port 4680 --workers 4
     dune exec bin/bwt_server.exe -- --port 0 --key-type str --index bw
     kill -TERM <pid>   # graceful drain; writes --metrics-json if given *)

open Cmdliner
module Server = Bw_server.Server

(* With --shards 1 this is exactly the pre-forest single-tree server: no
   router, one registry, the plain snapshot — a strict no-op. With N > 1
   the index is a range-partitioned forest (Bw_shard via
   Harness.Drivers), each shard feeding its own registry; STATS and the
   shutdown snapshot report the merged forest-wide totals plus
   shard<i>_-prefixed per-shard series. *)
(* Everything [main] needs from the chosen serving mode: the backend,
   the durable shutdown hook (checkpoint + WAL close), the per-shard
   replication sources (durable stores only — the WAL shipper's feed),
   and the follower's stream handler (follow mode only). *)
type built = {
  b_backend : Bw_server.Backend.t;
  b_shutdown : (unit -> unit) option;
  b_sources : Pagestore.Store.repl_source array option;
  b_repl_handler :
    (tid:int -> Bw_server.Wire.repl_req -> Bw_server.Wire.resp) option;
}

let config_of_index index =
  match index with
  | "openbw" -> None
  | "bw" -> Some Bwtree.microsoft_config
  | s ->
      Printf.eprintf "bwt_server: unknown index %S (try: openbw, bw)\n" s;
      exit 2

let backend_of (module D : Harness.Drivers.S) ~index ~shards ~obs_of
    ~data_dir ~fsync : built =
  let config = config_of_index index in
  match data_dir with
  | None ->
      {
        b_backend = D.K.backend (D.forest ?config ~obs_of ~shards ());
        b_shutdown = None;
        b_sources = None;
        b_repl_handler = None;
      }
  | Some dir ->
      let dur = D.durable ?config ~obs_of ~fsync ~shards ~dir () in
      Format.printf "bwt_server: recovered %a@." Pagestore.Store.pp_stats
        dur.dur_stats;
      let shutdown () =
        dur.dur_checkpoint ();
        dur.dur_close ()
      in
      {
        b_backend = D.K.backend dur.dur_driver;
        b_shutdown = Some shutdown;
        b_sources = Some dur.dur_sources;
        b_repl_handler = None;
      }

(* Follow mode: a warm standby that bootstraps from the primary's
   SNAPSHOT frames, applies WALCHUNKs into live trees, and serves reads
   (writes answer ERR) until a PROMOTE frame flips it read-write. *)
let follower_of keyed ~index ~shards ~obs ~obs_of : built =
  let config = config_of_index index in
  let fo = Bw_replica.follower keyed ?config ~obs ~obs_of ~shards () in
  {
    b_backend = fo.Bw_replica.fo_backend;
    b_shutdown = None;
    b_sources = None;
    b_repl_handler = Some fo.Bw_replica.fo_handle;
  }

let parse_host_port s =
  match String.rindex_opt s ':' with
  | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 ->
          ((if host = "" then "127.0.0.1" else host), p)
      | _ ->
          Printf.eprintf "bwt_server: bad port in %S\n" s;
          exit 2)
  | None ->
      Printf.eprintf "bwt_server: expected HOST:PORT, got %S\n" s;
      exit 2

(* One --cluster-peers entry: HOST:PORT, optionally /RHOST:RPORT naming
   that member's warm standby (routers may fan reads out to it). *)
let parse_peer s =
  let main, replica =
    match String.index_opt s '/' with
    | None -> (s, None)
    | Some i ->
        ( String.sub s 0 i,
          Some (String.sub s (i + 1) (String.length s - i - 1)) )
  in
  let ep_host, ep_port = parse_host_port main in
  {
    Bw_cluster.Table.ep_host;
    ep_port;
    ep_replica = Option.map parse_host_port replica;
  }

(* Every member computes the same epoch-1 table from the same
   --cluster-peers flag: uniform ranges over the live key sub-space (the
   in-process forest's default partition for the key type), assigned to
   the peers in order. Later epochs only ever come from migrations. *)
let bootstrap_table (module D : Harness.Drivers.S) peers =
  let endpoints = Array.of_list (List.map parse_peer peers) in
  let u = Bw_shard.Part.uniform (D.K.part (Array.length endpoints)) in
  Bw_cluster.Table.of_uniform ~epoch:1L endpoints u

let main host port workers shards index key_type data_dir no_fsync
    close_on_malformed metrics metrics_json replicate_to follow cluster_self
    cluster_peers =
  let keyed =
    try Harness.Drivers.of_key_type key_type
    with Invalid_argument m ->
      Printf.eprintf "bwt_server: %s\n" m;
      exit 2
  in
  if workers < 1 then begin
    Printf.eprintf "bwt_server: --workers must be >= 1\n";
    exit 2
  end;
  if shards < 1 then begin
    Printf.eprintf "bwt_server: --shards must be >= 1\n";
    exit 2
  end;
  (match (cluster_self, cluster_peers) with
  | None, None -> ()
  | Some _, None | None, Some _ ->
      Printf.eprintf
        "bwt_server: --cluster-self and --cluster-peers go together\n";
      exit 2
  | Some self, Some peers ->
      let n = List.length peers in
      if self < 0 || self >= n then begin
        Printf.eprintf
          "bwt_server: --cluster-self %d out of range for %d peers\n" self n;
        exit 2
      end;
      if follow then begin
        Printf.eprintf
          "bwt_server: --follow conflicts with cluster membership (list a \
           standby as HOST:PORT/RHOST:RPORT in --cluster-peers instead)\n";
        exit 2
      end);
  if follow && (data_dir <> None || replicate_to <> None) then begin
    Printf.eprintf
      "bwt_server: --follow conflicts with --data-dir and --replicate-to\n";
    exit 2
  end;
  if replicate_to <> None && data_dir = None then begin
    Printf.eprintf "bwt_server: --replicate-to requires --data-dir (the WAL \
                    is the stream)\n";
    exit 2
  end;
  let reg = Bw_obs.create ~stripes:(workers + 2) () in
  let obs = Bw_obs.To reg in
  let shard_regs =
    Array.init (if shards = 1 then 0 else shards) (fun _ ->
        Bw_obs.create ~stripes:(workers + 2) ())
  in
  (* a single tree feeds the main registry, a forest per-shard ones *)
  let obs_of i = if shards = 1 then obs else Bw_obs.To shard_regs.(i) in
  let built =
    if follow then follower_of keyed ~index ~shards ~obs ~obs_of
    else
      backend_of keyed ~index ~shards ~obs_of ~data_dir ~fsync:(not no_fsync)
  in
  let backend = built.b_backend and on_shutdown = built.b_shutdown in
  let snapshot_merged () =
    Bw_obs.snapshot_all (reg :: Array.to_list shard_regs)
  in
  let stats_string () =
    if shards = 1 then Bw_obs.snapshot_to_string (Bw_obs.snapshot reg)
    else
      let per_shard =
        Array.to_list
          (Array.mapi
             (fun i r -> (Printf.sprintf "shard%d" i, Bw_obs.snapshot r))
             shard_regs)
      in
      Bw_obs.sharded_snapshot_to_string ~shards:per_shard (snapshot_merged ())
  in
  (* Cluster membership: the gate validates every request against this
     node's partition table; MIGRATE admits synchronously, then copies
     and flips in a background domain (joined before shutdown). The
     engine's scan and obs use tid [workers + 1] — its own obs stripe
     and tree slot, off the workers' 0..N-1 and the shipper's N. *)
  let gate, migrate_handler, join_migration =
    match (cluster_self, cluster_peers) with
    | Some self, Some peers ->
        let table = bootstrap_table keyed peers in
        let g = Bw_server.Cluster_gate.create ~obs ~self table in
        let mig_tid = workers + 1 in
        let scan k ~n =
          let acc = ref [] in
          ignore
            (backend.Index_iface.scan ~tid:mig_tid k ~n (fun key v ->
                 acc := (key, v) :: !acc)
              : int);
          List.rev !acc
        in
        let last = ref None in
        let handler ~tid:_ ~lo ~hi ~dst =
          match
            Bw_router.Migration.start ~obs ~tid:mig_tid ~gate:g ~scan ~lo ~hi
              ~dst ()
          with
          | Error e -> Bw_server.Wire.Err e
          | Ok d ->
              (* the previous migration's domain has flipped or aborted
                 (begin_migration's CAS won), so joining it only waits
                 out its topology broadcast tail *)
              Option.iter Domain.join !last;
              last := Some d;
              Bw_server.Wire.Applied true
        in
        ( Some g,
          Some handler,
          fun () -> Option.iter Domain.join !last )
    | _ -> (None, None, fun () -> ())
  in
  let config =
    {
      Server.default_config with
      host;
      port;
      workers;
      close_on_malformed;
      obs;
      stats_json = (if shards = 1 then None else Some stats_string);
      repl_handler = built.b_repl_handler;
      gate;
      migrate_handler;
    }
  in
  (* before the banner: a supervisor may send SIGTERM as soon as it
     reads it, and that must drain, not kill *)
  let stop_requested = ref false in
  let on_signal _ = stop_requested := true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  let server = Server.start ~config backend in
  Printf.printf "bwt_server: serving %s (%s keys) on %s:%d with %d workers\n%!"
    backend.Index_iface.name key_type host (Server.port server) workers;
  (match (cluster_self, gate) with
  | Some self, Some g ->
      Printf.printf "bwt_server: cluster member %d of %d (epoch %Ld)\n%!" self
        (Bw_cluster.Table.n_endpoints (Bw_server.Cluster_gate.table g))
        (Bw_cluster.Table.epoch (Bw_server.Cluster_gate.table g))
  | _ -> ());
  if follow then
    Printf.printf "bwt_server: following (read-only until promoted)\n%!";
  let shipper =
    match replicate_to with
    | None -> None
    | Some target ->
        let rhost, rport = parse_host_port target in
        let sources = Option.get built.b_sources in
        (* obs tid [workers]: its own stripe, off the workers' 0..N-1 *)
        let sh =
          Bw_replica.Shipper.create ~obs ~tid:workers ~host:rhost ~port:rport
            ~key_type sources
        in
        Bw_replica.Shipper.start sh;
        Printf.printf "bwt_server: replicating to %s:%d\n%!" rhost rport;
        Some sh
  in
  while not !stop_requested do
    (try Unix.sleepf 0.1 with Unix.Unix_error (EINTR, _, _) -> ())
  done;
  Printf.printf "bwt_server: draining...\n%!";
  Server.stop server;
  join_migration ();
  (* drained first, so the shipper's final sweeps see every acknowledged
     write; only then checkpoint (which retires the WAL) *)
  Option.iter Bw_replica.Shipper.stop shipper;
  Option.iter
    (fun shutdown ->
      (* drained: every acknowledged op is in the tree, so the snapshot
         is consistent and the next boot replays an empty WAL *)
      Printf.printf "bwt_server: checkpointing...\n%!";
      shutdown ())
    on_shutdown;
  if metrics then Format.printf "%a@." Bw_obs.pp_snapshot (snapshot_merged ());
  Option.iter
    (fun file ->
      let oc = open_out file in
      output_string oc (stats_string ());
      output_char oc '\n';
      close_out oc;
      Printf.printf "bwt_server: wrote %s\n%!" file)
    metrics_json;
  Printf.printf "bwt_server: clean shutdown\n%!"

let cmd =
  let host =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind.")
  in
  let port =
    Arg.(value & opt int 4680
         & info [ "p"; "port" ] ~docv:"PORT"
             ~doc:"TCP port (0 picks an ephemeral port, printed on stdout).")
  in
  let workers =
    Arg.(value & opt int 4
         & info [ "w"; "workers" ] ~docv:"N"
             ~doc:"Worker domains, each running its own event loop.")
  in
  let shards =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"N"
             ~doc:"Serve a range-partitioned forest of $(docv) trees \
                   instead of a single tree (1 = plain single-tree \
                   server). STATS and the shutdown snapshot then carry \
                   merged totals plus shard<i>_-prefixed series.")
  in
  let index =
    Arg.(value & opt string "openbw"
         & info [ "i"; "index" ] ~docv:"INDEX"
             ~doc:"Index to serve: openbw, bw.")
  in
  let key_type =
    Arg.(value & opt string "int"
         & info [ "key-type" ] ~docv:"T"
             ~doc:"Key type behind the binary wire keys: int, str.")
  in
  let data_dir =
    Arg.(value & opt (some string) None
         & info [ "data-dir" ] ~docv:"DIR"
             ~doc:"Serve durably out of $(docv): recover the tree from the \
                   newest checkpoint generation plus WAL replay on boot, \
                   group-commit every applied write to the WAL while \
                   serving, and cut a fresh checkpoint after the shutdown \
                   drain. With --shards N each shard keeps its own \
                   generations and WAL under $(docv)/shard-<i>.")
  in
  let no_fsync =
    Arg.(value & flag
         & info [ "no-fsync" ]
             ~doc:"With --data-dir: skip the per-commit fsync (contents \
                   still recover after a clean process exit, but an OS \
                   crash may lose acknowledged writes).")
  in
  let close_on_malformed =
    Arg.(value & flag
         & info [ "close-on-malformed" ]
             ~doc:"Drop a connection after replying ERR to a malformed \
                   frame (framing-level violations always drop it).")
  in
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ] ~doc:"Print a metrics snapshot at shutdown.")
  in
  let metrics_json =
    Arg.(value & opt (some string) None
         & info [ "metrics-json" ] ~docv:"FILE"
             ~doc:"Write a JSON metrics snapshot to $(docv) at shutdown.")
  in
  let replicate_to =
    Arg.(value & opt (some string) None
         & info [ "replicate-to" ] ~docv:"HOST:PORT"
             ~doc:"Ship the WAL to a standby serving with --follow at \
                   $(docv). Requires --data-dir. Shipping is asynchronous \
                   (never on the commit path); the stream bootstraps the \
                   standby from the newest checkpoint generation and then \
                   tails commit groups, reconnecting and re-bootstrapping \
                   as needed.")
  in
  let follow =
    Arg.(value & flag
         & info [ "follow" ]
             ~doc:"Run as a warm standby: accept a primary's replication \
                   stream, apply it into live trees, and serve GET/SCAN/\
                   STATS while following (writes answer ERR). A PROMOTE \
                   frame — optionally naming the dead primary's data \
                   directory, whose on-disk WAL tail is then replayed — \
                   flips the process read-write.")
  in
  let cluster_self =
    Arg.(value & opt (some int) None
         & info [ "cluster-self" ] ~docv:"I"
             ~doc:"Serve as member $(docv) of the cluster described by \
                   --cluster-peers: validate every request against the \
                   partition table (wrong owner answers EWRONGSHARD), \
                   serve TOPOLOGY, and accept MIGRATE.")
  in
  let cluster_peers =
    Arg.(value & opt (some (list string)) None
         & info [ "cluster-peers" ] ~docv:"PEERS"
             ~doc:"Comma-separated member endpoints, HOST:PORT each, \
                   optionally /RHOST:RPORT naming that member's warm \
                   standby. Every member must pass the identical list; \
                   the epoch-1 table splits the key space uniformly \
                   across it.")
  in
  let term =
    Term.(
      const main $ host $ port $ workers $ shards $ index $ key_type
      $ data_dir $ no_fsync $ close_on_malformed $ metrics
      $ metrics_json $ replicate_to $ follow $ cluster_self $ cluster_peers)
  in
  Cmd.v
    (Cmd.info "bwt_server"
       ~doc:"Serve a Bw-Tree over the binary wire protocol"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Starts one acceptor and N worker domains; all workers drive \
              the same lock-free tree. SIGTERM/SIGINT drain in-flight \
              requests, flush, and shut down cleanly.";
         ])
    term

let () = exit (Cmd.eval cmd)
