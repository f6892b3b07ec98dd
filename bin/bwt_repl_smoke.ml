(* CI smoke test for replication failover: a primary shipping its WAL to
   a warm standby, SIGKILLed mid-write, and the standby promoted in its
   place.

   Sequence: start a standby (--follow) and a primary (--data-dir
   --replicate-to) on ephemeral ports; run a synchronous acknowledged-PUT
   tracker plus a background mixed loadgen against the primary; SIGKILL
   the primary mid-write; verify the standby rejects writes while
   following; PROMOTE it with the dead primary's data directory (which
   replays the on-disk WAL tail the stream had not delivered yet); then
   verify every acknowledged PUT is readable on the promoted node, that
   it now accepts writes, and that its STATS snapshot carries the repl_*
   counters (written out for json_check).

   Usage: bwt_repl_smoke STATS_JSON_OUT *)

let die fmt =
  Printf.ksprintf (fun m -> prerr_endline ("bwt_repl_smoke: " ^ m); exit 1) fmt

let data_dir = "repl-smoke-data"
let key_base = 1_000_000 (* clear of the loadgen's key range *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

type boot = { b_pid : int; b_out : in_channel; b_port : int }

(* Spawn a server with [args] on an ephemeral port; read stdout until the
   serving banner gives up the port. *)
let start_server name args =
  let out_r, out_w = Unix.pipe () in
  let argv =
    Array.of_list ([ "./bwt_server.exe"; "--port"; "0"; "--workers"; "2" ]
                  @ args)
  in
  let pid =
    Unix.create_process "./bwt_server.exe" argv Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let out = Unix.in_channel_of_descr out_r in
  let port = ref 0 in
  (try
     while !port = 0 do
       let line = input_line out in
       print_endline line;
       let has_prefix p =
         String.length line >= String.length p
         && String.sub line 0 (String.length p) = p
       in
       if has_prefix "bwt_server: serving" then
         try
           Scanf.sscanf
             (List.nth (String.split_on_char ':' line)
                (List.length (String.split_on_char ':' line) - 1))
             "%d" (fun p -> port := p)
         with _ -> die "cannot parse port from banner: %s" line
     done
   with End_of_file -> die "%s exited before its serving banner" name);
  { b_pid = pid; b_out = out; b_port = !port }

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
      Printf.printf "bwt_repl_smoke: %s exited with code %d (expected)\n%!"
        name c
  | _, Unix.WEXITED c -> die "%s exited with code %d" name c
  | _, Unix.WSIGNALED s when not expect_clean ->
      Printf.printf "bwt_repl_smoke: %s killed by signal %d (expected)\n%!"
        name s
  | _, Unix.WSIGNALED s -> die "%s killed by signal %d" name s
  | _, Unix.WSTOPPED s -> die "%s stopped by signal %d" name s

let contains json needle =
  let nl = String.length needle and jl = String.length json in
  let rec scan i = i + nl <= jl && (String.sub json i nl = needle || scan (i + 1)) in
  scan 0

let () =
  let out_file =
    match Sys.argv with
    | [| _; f |] -> f
    | _ -> (prerr_endline "usage: bwt_repl_smoke STATS_JSON_OUT"; exit 2)
  in
  (* hard backstop: a hung server must fail CI, not wedge it *)
  ignore (Unix.alarm 240);
  rm_rf data_dir;

  let standby = start_server "standby" [ "--follow" ] in
  let primary =
    start_server "primary"
      [
        "--data-dir"; data_dir; "--no-fsync";
        "--replicate-to"; Printf.sprintf "127.0.0.1:%d" standby.b_port;
      ]
  in

  (* background mixed load so the kill lands mid-write *)
  let lg =
    Unix.create_process "./bwt_loadgen.exe"
      [|
        "./bwt_loadgen.exe"; "--port"; string_of_int primary.b_port;
        "--clients"; "2"; "--pipeline"; "8"; "--mix"; "a";
        "--keys"; "8000"; "--ops"; "5000000"; "--batch"; "16";
      |]
      Unix.stdin Unix.stdout Unix.stderr
  in

  (* synchronous acknowledged-write tracker: key_base+i -> 3*(key_base+i);
     every PUT that returned before the kill must survive failover *)
  let acked = Atomic.make 0 and stop_acker = Atomic.make false in
  let acker =
    Domain.spawn (fun () ->
        let c = Bw_client.connect ~port:primary.b_port () in
        (try
           let i = ref 0 in
           while not (Atomic.get stop_acker) do
             let k = key_base + !i in
             ignore (Bw_client.Int_key.put c k (3 * k) : bool);
             Atomic.set acked (!i + 1);
             incr i
           done
         with Bw_client.Server_closed | Unix.Unix_error _ -> ());
        Bw_client.close c)
  in

  Unix.sleepf 2.0;
  Unix.kill primary.b_pid Sys.sigkill;
  Atomic.set stop_acker true;
  Domain.join acker;
  let acked = Atomic.get acked in
  if acked < 100 then die "only %d PUTs acknowledged before the kill" acked;
  Printf.printf "bwt_repl_smoke: %d acknowledged PUTs before SIGKILL\n%!"
    acked;
  (match Unix.waitpid [] lg with
  | _, Unix.WEXITED 0 -> die "loadgen finished before the kill; raise --ops"
  | _ -> ());
  drain_and_reap "primary" primary ~expect_clean:false;

  let sc = Bw_client.connect ~port:standby.b_port () in
  (* still following: writes must be refused, reads served *)
  (match Bw_client.Int_key.put sc key_base 0 with
  | _ -> die "standby accepted a write before promotion"
  | exception (Bw_client.Read_only | Bw_client.Protocol_error _) -> ());
  let t0 = Unix.gettimeofday () in
  let replayed = Bw_client.promote ~data_dir sc in
  Printf.printf
    "bwt_repl_smoke: promoted in %.0f ms; tail replay applied %d ops\n%!"
    (1000. *. (Unix.gettimeofday () -. t0))
    replayed;

  (* zero acknowledged-write loss across the failover *)
  for i = 0 to acked - 1 do
    let k = key_base + i in
    match Bw_client.Int_key.get sc k with
    | Some v when v = 3 * k -> ()
    | Some v -> die "key %d has value %d, expected %d" k v (3 * k)
    | None -> die "acknowledged key %d lost across failover" k
  done;
  Printf.printf "bwt_repl_smoke: all %d acknowledged PUTs survived\n%!" acked;

  (* promoted: read-write *)
  ignore (Bw_client.Int_key.put sc (key_base - 1) 42 : bool);
  if Bw_client.Int_key.get sc (key_base - 1) <> Some 42 then
    die "write on the promoted node did not stick";
  (match Bw_client.promote sc with
  | 0 -> () (* idempotent *)
  | n -> die "second PROMOTE replayed %d ops" n);

  let stats = Bw_client.stats sc in
  Bw_client.close sc;
  List.iter
    (fun needle ->
      if not (contains stats needle) then
        die "%s missing from the promoted node's STATS" needle)
    [
      "\"repl_records_applied\"";
      "\"repl_ops_applied\"";
      "\"repl_snapshot_pages\"";
      "\"repl_promotions\"";
      "\"repl_lag_records\"";
      "\"repl_lag_bytes\"";
    ];
  let oc = open_out out_file in
  output_string oc stats;
  output_char oc '\n';
  close_out oc;

  Unix.kill standby.b_pid Sys.sigterm;
  drain_and_reap "standby" standby ~expect_clean:true;
  rm_rf data_dir;
  Printf.printf
    "bwt_repl_smoke: ok (%d acked writes survived, %d tail-replayed ops, \
     stats in %s)\n"
    acked replayed out_file
