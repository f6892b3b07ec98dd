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

let config_of_index index =
  match index with
  | "openbw" -> None
  | "bw" -> Some Bwtree.microsoft_config
  | s ->
      Printf.eprintf "bwt_server: unknown index %S (try: openbw, bw)\n" s;
      exit 2

(* The served backend, plus the durable store's hooks when serving out of
   a data directory: [checkpoint] after the shutdown drain, then [close]
   (fsync and release the WAL). A start-up failure only closes. *)
type store = { checkpoint : unit -> unit; close : unit -> unit }

let backend_of (module D : Harness.Drivers.S) ~index ~shards ~obs_of
    ~data_dir ~fsync =
  let config = config_of_index index in
  match data_dir with
  | None -> (D.K.backend (D.forest ?config ~obs_of ~shards ()), None)
  | Some dir ->
      let dur = D.durable ?config ~obs_of ~fsync ~shards ~dir () in
      Format.printf "bwt_server: recovered %a@." Pagestore.Store.pp_stats
        dur.dur_stats;
      ( D.K.backend dur.dur_driver,
        Some
          {
            checkpoint = (fun () -> dur.dur_checkpoint ());
            close = dur.dur_close;
          } )

let main host port workers shards index key_type data_dir no_fsync
    close_on_malformed metrics metrics_json =
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
  (* checked before [backend_of] opens --data-dir, so a bad host leaves
     the directory as it found it *)
  (match Unix.inet_addr_of_string host with
  | _ -> ()
  | exception Failure _ ->
      Printf.eprintf "bwt_server: host %S is not a numeric address\n" host;
      exit 2);
  let reg = Bw_obs.create ~stripes:(workers + 1) () in
  let obs = Bw_obs.To reg in
  let shard_regs =
    Array.init (if shards = 1 then 0 else shards) (fun _ ->
        Bw_obs.create ~stripes:(workers + 1) ())
  in
  (* a single tree feeds the main registry, a forest per-shard ones *)
  let obs_of i = if shards = 1 then obs else Bw_obs.To shard_regs.(i) in
  let backend, store =
    backend_of keyed ~index ~shards ~obs_of ~data_dir ~fsync:(not no_fsync)
  in
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
  let config =
    {
      Server.default_config with
      host;
      port;
      workers;
      close_on_malformed;
      obs;
      stats_json = (if shards = 1 then None else Some stats_string);
    }
  in
  (* before the banner: a supervisor may send SIGTERM as soon as it
     reads it, and that must drain, not kill *)
  let stop_requested = ref false in
  let on_signal _ = stop_requested := true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  let server =
    let fail m =
      Option.iter (fun st -> st.close ()) store;
      Printf.eprintf "bwt_server: %s\n" m;
      exit 2
    in
    try Server.start ~config backend with
    | Invalid_argument m -> fail m
    | Unix.Unix_error (e, fn, _) ->
        (* the port is taken, or the address is not ours to bind *)
        fail
          (Printf.sprintf "cannot listen on %s:%d: %s (%s)" host port
             (Unix.error_message e) fn)
  in
  Printf.printf "bwt_server: serving %s (%s keys) on %s:%d with %d workers\n%!"
    backend.Index_iface.name key_type host (Server.port server) workers;
  while not !stop_requested do
    (try Unix.sleepf 0.1 with Unix.Unix_error (EINTR, _, _) -> ())
  done;
  Printf.printf "bwt_server: draining...\n%!";
  Server.stop server;
  Option.iter
    (fun st ->
      (* drained: every acknowledged op is in the tree, so the snapshot
         is consistent and the next boot replays an empty WAL *)
      Printf.printf "bwt_server: checkpointing...\n%!";
      st.checkpoint ();
      st.close ())
    store;
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
  let term =
    Term.(
      const main $ host $ port $ workers $ shards $ index $ key_type
      $ data_dir $ no_fsync $ close_on_malformed $ metrics
      $ metrics_json)
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
         ]
       ~exits:
         (Cmd.Exit.info 0 ~doc:"the server drained and shut down cleanly."
         :: Cmd.Exit.info 2
              ~doc:"it could not start: a flag has a bad value, or it \
                    cannot listen on the address (the port is in use). A \
                    one-line message names which; a --data-dir store \
                    opened before the failure is closed again."
         :: List.filter (fun i -> Cmd.Exit.info_code i <> 0) Cmd.Exit.defaults))
    term

let () = exit (Cmd.eval cmd)
