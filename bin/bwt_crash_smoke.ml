(* CI smoke test for crash recovery: three boots of the real
   bwt_server.exe against one --data-dir.

   Boot A is loaded by bwt_loadgen.exe and SIGKILLed mid-write — no
   drain, no checkpoint, a torn WAL tail is likely. Boot B must recover
   (its banner reports what the WAL replay found), serve a fresh loadgen
   mix on the recovered state, and checkpoint on SIGTERM; its shutdown
   metrics snapshot (validated by json_check in the @ci rule) carries
   the recovered_* counters. Boot C then proves the checkpoint: it must
   come up with snapshot items and an empty WAL.

   Usage: bwt_crash_smoke METRICS_JSON_OUT *)

let die fmt =
  Printf.ksprintf (fun m -> prerr_endline ("bwt_crash_smoke: " ^ m); exit 1) fmt

let data_dir = "crash-smoke-data"

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

type boot = {
  b_pid : int;
  b_out : in_channel;
  b_port : int;
  b_recovered : string;  (* the "bwt_server: recovered ..." banner line *)
}

(* Spawn the server on an ephemeral port and read its stdout until the
   serving banner appears, capturing the recovery report on the way. *)
let start_server ?(extra = []) () =
  let out_r, out_w = Unix.pipe () in
  let argv =
    Array.of_list
      ([
         "./bwt_server.exe"; "--port"; "0"; "--workers"; "2";
         "--data-dir"; data_dir; "--no-fsync";
       ]
      @ extra)
  in
  let pid = Unix.create_process "./bwt_server.exe" argv Unix.stdin out_w Unix.stderr in
  Unix.close out_w;
  let out = Unix.in_channel_of_descr out_r in
  let recovered = ref "" in
  let port = ref 0 in
  (try
     while !port = 0 do
       let line = input_line out in
       print_endline line;
       let has_prefix p =
         String.length line >= String.length p
         && String.sub line 0 (String.length p) = p
       in
       if has_prefix "bwt_server: recovered" then recovered := line;
       (* "bwt_server: serving ... on HOST:PORT with N workers" *)
       if has_prefix "bwt_server: serving" then
         try
           Scanf.sscanf
             (List.nth (String.split_on_char ':' line)
                (List.length (String.split_on_char ':' line) - 1))
             "%d" (fun p -> port := p)
         with _ -> die "cannot parse port from banner: %s" line
     done
   with End_of_file -> die "server exited before its serving banner");
  { b_pid = pid; b_out = out; b_port = !port; b_recovered = !recovered }

let drain_and_reap name b ~expect_clean =
  (try
     while true do
       print_endline (input_line b.b_out)
     done
   with End_of_file -> ());
  close_in_noerr b.b_out;
  match Unix.waitpid [] b.b_pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED c when not expect_clean ->
      Printf.printf "bwt_crash_smoke: %s exited with code %d (expected)\n%!" name c
  | _, Unix.WEXITED c -> die "%s exited with code %d" name c
  | _, Unix.WSIGNALED s when not expect_clean ->
      Printf.printf "bwt_crash_smoke: %s killed by signal %d (expected)\n%!" name s
  | _, Unix.WSIGNALED s -> die "%s killed by signal %d" name s
  | _, Unix.WSTOPPED s -> die "%s stopped by signal %d" name s

let run_loadgen ~port ~ops ~wait =
  let pid =
    Unix.create_process "./bwt_loadgen.exe"
      [|
        "./bwt_loadgen.exe"; "--port"; string_of_int port; "--clients"; "2";
        "--pipeline"; "8"; "--mix"; "a"; "--keys"; "8000";
        "--ops"; string_of_int ops; "--batch"; "16";
      |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  if wait then begin
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> -1
    | _, Unix.WEXITED c -> die "bwt_loadgen exited with code %d" c
    | _, st -> ignore st; die "bwt_loadgen died"
  end
  else pid

(* pull "field=N" out of the recovered banner *)
let banner_field line field =
  let rec find = function
    | [] -> die "no %s= in recovery banner: %s" field line
    | tok :: rest -> (
        match String.index_opt tok '=' with
        | Some i when String.sub tok 0 i = field ->
            int_of_string (String.sub tok (i + 1) (String.length tok - i - 1))
        | _ -> find rest)
  in
  find (String.split_on_char ' ' line)

let () =
  let out_file =
    match Sys.argv with
    | [| _; f |] -> f
    | _ -> (prerr_endline "usage: bwt_crash_smoke METRICS_JSON_OUT"; exit 2)
  in
  (* hard backstop: a hung server must fail CI, not wedge it *)
  ignore (Unix.alarm 240);
  rm_rf data_dir;

  (* --- boot A: load, then SIGKILL mid-write --- *)
  let a = start_server () in
  if banner_field a.b_recovered "snapshot_items" <> 0 then
    die "boot A on a fresh dir was not empty: %s" a.b_recovered;
  (* an op count the loadgen cannot finish before the kill lands *)
  let lg = run_loadgen ~port:a.b_port ~ops:5_000_000 ~wait:false in
  Unix.sleepf 2.0;
  Unix.kill a.b_pid Sys.sigkill;
  (* the loadgen reports the lost server with its own exit code *)
  (match Unix.waitpid [] lg with
  | _, Unix.WEXITED 4 -> ()
  | _, Unix.WEXITED 0 -> die "loadgen finished before the kill; raise --ops"
  | _, Unix.WEXITED c -> die "loadgen exited %d after the kill, expected 4" c
  | _ -> die "loadgen died after the kill");
  drain_and_reap "server (boot A)" a ~expect_clean:false;

  (* --- boot B: recover, serve, checkpoint on SIGTERM --- *)
  let b = start_server ~extra:[ "--metrics-json"; out_file ] () in
  let replayed = banner_field b.b_recovered "wal_ops" in
  if replayed <= 0 then
    die "boot B replayed nothing after a 2s write burst: %s" b.b_recovered;
  Printf.printf "bwt_crash_smoke: boot B replayed %d WAL ops\n%!" replayed;
  ignore (run_loadgen ~port:b.b_port ~ops:20_000 ~wait:true);
  Unix.kill b.b_pid Sys.sigterm;
  drain_and_reap "server (boot B)" b ~expect_clean:true;
  if not (Sys.file_exists out_file) then die "boot B wrote no %s" out_file;
  (* the snapshot must carry the recovery counters *)
  let json = In_channel.with_open_bin out_file In_channel.input_all in
  List.iter
    (fun needle ->
      let found =
        let nl = String.length needle and jl = String.length json in
        let rec scan i = i + nl <= jl && (String.sub json i nl = needle || scan (i + 1)) in
        scan 0
      in
      if not found then die "%s missing from %s" needle out_file)
    [ "\"recovered_wal_records\""; "\"recovered_pages\""; "\"wal_appends\"" ];

  (* --- boot C: the checkpoint holds, the WAL is empty --- *)
  let c = start_server () in
  if banner_field c.b_recovered "wal_ops" <> 0 then
    die "boot C found WAL ops after a checkpointed shutdown: %s" c.b_recovered;
  if banner_field c.b_recovered "snapshot_items" <= 0 then
    die "boot C recovered an empty snapshot: %s" c.b_recovered;
  Unix.kill c.b_pid Sys.sigterm;
  drain_and_reap "server (boot C)" c ~expect_clean:true;
  rm_rf data_dir;
  Printf.printf "bwt_crash_smoke: ok (boot B replayed %d ops, snapshot %s)\n"
    replayed out_file
