(* A durable OpenBw-Tree: the log-structured page store the mapping table
   exists to enable (§2.2: "the mapping table also serves the purpose of
   supporting log-structured updates when deployed with SSD"; §8 names
   larger-than-memory operation as the future-work direction; the
   substrate follows LLAMA [23]).

   Writes go through a group-commit WAL. Each checkpoint writes the tree's
   leaf pages out of place into the *next* generation, flips CURRENT and
   deletes the old generation — rotation is how the store reclaims the
   space of superseded pages and WAL records. Reopening the directory
   recovers the newest checkpoint plus the WAL suffix logged after it.

   Run with: dune exec examples/persistence.exe
   (the store lives in a fresh temporary directory, removed at exit). *)

module D = Harness.Drivers.Int
module Store = D.Durable

let rec disk_bytes path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc e -> acc + disk_bytes (Filename.concat path e))
      0 (Sys.readdir path)
  else (Unix.stat path).Unix.st_size

let generations dir =
  List.sort compare
    (List.filter
       (fun e -> e <> "CURRENT")
       (Array.to_list (Sys.readdir dir)))

let report st dir =
  Printf.printf "  gen %d on disk: [%s], %.2f MB\n" (Store.gen st)
    (String.concat " " (generations dir))
    (float_of_int (disk_bytes dir) /. 1048576.)

let run dir =
  let st, stats = Store.open_dir ~dir () in
  assert stats.Pagestore.Store.rs_fresh;
  let d = Store.wrap_driver st (D.driver_of_tree (Store.tree st)) in
  let rng = Bw_util.Rng.create ~seed:42L in
  (* one batch call is one WAL record and one fsync *)
  let write_round n v =
    let ops =
      Array.init n (fun _ ->
          Index_iface.Bop_upsert (Bw_util.Rng.next_int rng 200_000, v))
    in
    Array.iteri
      (fun i _ ->
        if i mod 256 = 0 then
          ignore
            (Index_iface.exec_batch d ~tid:0
               (Array.sub ops i (min 256 (n - i)))))
      ops
  in
  for round = 1 to 3 do
    write_round 20_000 round;
    let pages, bytes = Store.checkpoint st in
    Printf.printf "checkpoint %d: %d keys in %d pages (%.2f MB)\n" round
      (D.Bw.cardinal (Store.tree st))
      pages
      (float_of_int bytes /. 1048576.);
    report st dir;
    (* the superseded generation is gone: one pages log, one WAL *)
    assert (List.length (generations dir) = 2)
  done;
  (* a WAL suffix the last checkpoint does not cover *)
  write_round 1_000 4;
  let expected = D.Bw.scan_all (Store.tree st) () in
  Store.close st;

  (* "crash" and reopen: snapshot pages plus WAL replay *)
  let st, stats = Store.open_dir ~dir () in
  Format.printf "recovered: %a@." Pagestore.Store.pp_stats stats;
  assert (stats.rs_gen = 3);
  assert (stats.rs_wal_ops = 1_000);
  assert (D.Bw.scan_all (Store.tree st) () = expected);
  D.Bw.verify_invariants (Store.tree st);
  Printf.printf "recovered %d keys intact\n" (D.Bw.cardinal (Store.tree st));
  Store.close st

let () =
  let dir = Filename.temp_dir "bwt-persistence" "" in
  Fun.protect ~finally:(fun () -> Pagestore.Store.rm_rf dir) (fun () -> run dir)
