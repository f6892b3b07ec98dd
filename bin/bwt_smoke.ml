(* CI smoke test for the serving layer: spawns the real bwt_server.exe on
   an ephemeral loopback port, runs a short bwt_loadgen.exe mix against
   it, SIGTERMs the server and asserts a clean drain plus a metrics
   snapshot on disk (validated by json_check in the @ci rule).

   Three passes: a single-tree server (--shards 1, YCSB-A traffic), a
   4-shard forest server (--shards 4, YCSB-E traffic batched 8 ops per
   BATCH frame, whose SCAN frames cross shard boundaries, whose batches
   split across shards, and whose snapshot carries the shard<i>_ series
   merged over the per-shard registries), and a 1-worker single-tree
   server under YCSB-E, where worker 0 accepts every connection for
   itself. The 2-worker passes cover the round-robin handoff.

   Usage: bwt_smoke METRICS_JSON_OUT SHARDED_METRICS_JSON_OUT
                    ONE_WORKER_METRICS_JSON_OUT *)

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("bwt_smoke: " ^ m); exit 1) fmt

let wait_exit name pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED c -> die "%s exited with code %d" name c
  | _, Unix.WSIGNALED s -> die "%s killed by signal %d" name s
  | _, Unix.WSTOPPED s -> die "%s stopped by signal %d" name s

let run_pass ~workers ~shards ~mix ~batch ~out_file =
  let srv_out_r, srv_out_w = Unix.pipe () in
  let server_pid =
    Unix.create_process "./bwt_server.exe"
      [|
        "./bwt_server.exe"; "--port"; "0"; "--workers"; string_of_int workers;
        "--shards"; string_of_int shards; "--metrics-json"; out_file;
      |]
      Unix.stdin srv_out_w Unix.stderr
  in
  Unix.close srv_out_w;
  let srv_out = Unix.in_channel_of_descr srv_out_r in
  (* first line: "bwt_server: serving ... on HOST:PORT with N workers" *)
  let banner = try input_line srv_out with End_of_file -> die "server produced no banner" in
  print_endline banner;
  let port =
    try
      Scanf.sscanf (List.nth (String.split_on_char ':' banner)
                      (List.length (String.split_on_char ':' banner) - 1))
        "%d" (fun p -> p)
    with _ -> die "cannot parse port from banner: %s" banner
  in
  if port <= 0 || port > 65535 then die "bad port %d in banner" port;
  let loadgen_pid =
    Unix.create_process "./bwt_loadgen.exe"
      [|
        "./bwt_loadgen.exe"; "--port"; string_of_int port; "--clients"; "4";
        "--pipeline"; "8"; "--mix"; mix; "--keys"; "20000"; "--ops"; "40000";
        "--batch"; string_of_int batch;
      |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  wait_exit "bwt_loadgen" loadgen_pid;
  Unix.kill server_pid Sys.sigterm;
  (* drain the server's remaining stdout so it can't block on the pipe *)
  (try
     while true do
       print_endline (input_line srv_out)
     done
   with End_of_file -> ());
  Unix.close srv_out_r;
  wait_exit "bwt_server" server_pid;
  if not (Sys.file_exists out_file) then
    die "server did not write %s" out_file;
  Printf.printf
    "bwt_smoke: pass ok (%d worker(s), %d shard(s), mix %s, port %d, snapshot \
     %s)\n%!"
    workers shards mix port out_file

let () =
  let single_out, sharded_out, one_worker_out =
    match Sys.argv with
    | [| _; a; b; c |] -> (a, b, c)
    | _ ->
        prerr_endline
          "usage: bwt_smoke METRICS_JSON_OUT SHARDED_METRICS_JSON_OUT \
           ONE_WORKER_METRICS_JSON_OUT";
        exit 2
  in
  (* hard backstop: a hung server must fail CI, not wedge it *)
  ignore (Unix.alarm 240);
  run_pass ~workers:2 ~shards:1 ~mix:"a" ~batch:1 ~out_file:single_out;
  run_pass ~workers:2 ~shards:4 ~mix:"e" ~batch:8 ~out_file:sharded_out;
  run_pass ~workers:1 ~shards:1 ~mix:"e" ~batch:1 ~out_file:one_worker_out;
  Printf.printf "bwt_smoke: ok (%s, %s, %s)\n" single_out sharded_out
    one_worker_out
