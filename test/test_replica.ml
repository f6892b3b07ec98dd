(* Tests for the replication subsystem (lib/replica): wire roundtrips
   for the stream frames, the standby applier driven by synthetic frames
   and checked against a sequential oracle (a standby that has applied
   any committed WAL prefix must equal the oracle over exactly that
   prefix), stream-protocol edge cases, and promotion — both the on-disk
   WAL-tail replay and the cold-rebuild fallback. *)

module Wire = Bw_server.Wire
module T = Harness.Drivers.Int.Bw
module Store_int = Harness.Drivers.Int.Durable
module W = Store_int.W
module F = Bw_replica.Follow (Harness.Drivers.Int)

let tmp_counter = ref 0

let with_tmp_dir f =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bwt-test-replica-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  Pagestore.Store.rm_rf dir;
  Fun.protect ~finally:(fun () -> Pagestore.Store.rm_rf dir) (fun () -> f dir)

let ok = function
  | Wire.Repl_ok n -> n
  | Wire.Err m -> Alcotest.fail ("unexpected ERR: " ^ m)
  | _ -> Alcotest.fail "unexpected response shape"

let expect_err = function
  | Wire.Err _ -> ()
  | Wire.Repl_ok n -> Alcotest.failf "expected ERR, got Repl_ok %d" n
  | _ -> Alcotest.fail "unexpected response shape"

let subscribe ?(shards = 1) f =
  Alcotest.(check int)
    "subscribe ack" 0
    (ok (F.handle f ~tid:0 (Wire.R_subscribe { key_type = "int"; shards })))

(* bootstrap a shard with an empty generation-[gen] snapshot *)
let bootstrap_empty ?(gen = 0) f shard =
  ignore
    (ok
       (F.handle f ~tid:0
          (Wire.R_snapshot
             {
               shard;
               gen;
               start_rec = 0;
               start_ops = 0;
               pages = [];
               last = true;
               items = 0;
             }))
      : int)

let chunk ?(gen = 0) f ~shard ~from_rec groups =
  F.handle f ~tid:0
    (Wire.R_walchunk { shard; gen; from_rec; groups; p_recs = 0; p_bytes = 0 })

(* --- wire roundtrips for the replication frames --- *)

let roundtrip_req r =
  let buf = Buffer.create 64 in
  Wire.encode_req buf r;
  Wire.decode_req (Buffer.contents buf)

let test_wire_roundtrip () =
  List.iter
    (fun r ->
      Alcotest.(check bool) "request roundtrip" true (roundtrip_req r = r))
    [
      Wire.Repl (Wire.R_subscribe { key_type = "int"; shards = 4 });
      Wire.Repl
        (Wire.R_snapshot
           {
             shard = 2;
             gen = 3;
             start_rec = 11;
             start_ops = 400;
             pages = [ "page-a"; ""; "page-c" ];
             last = true;
             items = 12345;
           });
      Wire.Repl
        (Wire.R_walchunk
           {
             shard = 0;
             gen = 7;
             from_rec = 99;
             groups = [ "g1"; "g2" ];
             p_recs = 120;
             p_bytes = 9999;
           });
      Wire.Repl (Wire.R_promote { data_dir = None });
      Wire.Repl (Wire.R_promote { data_dir = Some "/var/data/primary" });
    ];
  let buf = Buffer.create 8 in
  Wire.encode_resp buf (Wire.Repl_ok 42);
  Alcotest.(check bool)
    "ack roundtrip" true
    (Wire.decode_resp (Buffer.contents buf) = Wire.Repl_ok 42)

(* --- stream protocol guards --- *)

let test_protocol_guards () =
  let f = F.create ~shards:2 () in
  expect_err
    (F.handle f ~tid:0 (Wire.R_subscribe { key_type = "str"; shards = 2 }));
  expect_err
    (F.handle f ~tid:0 (Wire.R_subscribe { key_type = "int"; shards = 3 }));
  subscribe ~shards:2 f;
  (* chunks are refused until the shard bootstraps, and for bad shards *)
  expect_err (chunk f ~shard:0 ~from_rec:0 [ W.encode_ops [ W.W_insert (1, 1) ] ]);
  expect_err (chunk f ~shard:9 ~from_rec:0 []);
  bootstrap_empty f 0;
  bootstrap_empty f 1;
  let g0 = W.encode_ops [ W.W_insert (1, 10); W.W_insert (2, 20) ] in
  Alcotest.(check int) "chunk applied" 1 (ok (chunk f ~shard:0 ~from_rec:0 [ g0 ]));
  (* cursor mismatch in either direction is refused, state unchanged *)
  expect_err (chunk f ~shard:0 ~from_rec:0 [ g0 ]);
  expect_err (chunk f ~shard:0 ~from_rec:5 [ g0 ]);
  Alcotest.(check int) "stream resumes at the acknowledged record" 2
    (ok (chunk f ~shard:0 ~from_rec:1 [ W.encode_ops [ W.W_remove 1 ] ]));
  let d = (F.drivers f).(0) in
  Alcotest.(check (option int)) "applied state" (Some 20)
    (d.Index_iface.read ~tid:0 2);
  Alcotest.(check (option int)) "remove applied" None
    (d.Index_iface.read ~tid:0 1)

(* The serving view a string-keyed standby exposes: built through the
   string driver instance, it refuses an int stream, serves reads of
   applied chunks on both shards of its forest and refuses writes until
   promoted. *)
let test_str_follower () =
  let module Sw = Harness.Drivers.Str.Durable.W in
  let fo =
    Bw_replica.follower (module Harness.Drivers.Str) ~shards:2 ()
  in
  let handle = fo.Bw_replica.fo_handle ~tid:0 in
  let be = fo.Bw_replica.fo_backend in
  expect_err (handle (Wire.R_subscribe { key_type = "int"; shards = 2 }));
  Alcotest.(check int) "subscribe ack" 0
    (ok (handle (Wire.R_subscribe { key_type = "str"; shards = 2 })));
  (* first bytes on either side of the 2-shard partition's midpoint *)
  let lo_key = "\x10-low" and hi_key = "\xf0-high" in
  for shard = 0 to 1 do
    ignore
      (ok
         (handle
            (Wire.R_snapshot
               { shard; gen = 0; start_rec = 0; start_ops = 0; pages = [];
                 last = true; items = 0 }))
        : int);
    let key = if shard = 0 then lo_key else hi_key in
    Alcotest.(check int) "chunk applied" 1
      (ok
         (handle
            (Wire.R_walchunk
               { shard; gen = 0; from_rec = 0; p_recs = 0; p_bytes = 0;
                 groups = [ Sw.encode_ops [ Sw.W_insert (key, shard + 1) ] ] })))
  done;
  Alcotest.(check (option int)) "shard 0 read" (Some 1)
    (be.Index_iface.read ~tid:0 lo_key);
  Alcotest.(check (option int)) "shard 1 read" (Some 2)
    (be.Index_iface.read ~tid:0 hi_key);
  let seen = ref [] in
  ignore
    (be.Index_iface.scan ~tid:0 "" ~n:10 (fun k v -> seen := (k, v) :: !seen)
      : int);
  Alcotest.(check (list (pair string int)))
    "scan across the forest" [ (lo_key, 1); (hi_key, 2) ] (List.rev !seen);
  (match be.Index_iface.insert ~tid:0 "x" 1 with
  | _ -> Alcotest.fail "write accepted while following"
  | exception Index_iface.Read_only -> ());
  ignore (ok (handle (Wire.R_promote { data_dir = None })) : int);
  Alcotest.(check bool) "promoted" true (fo.Bw_replica.fo_promoted ());
  Alcotest.(check bool) "write after promotion" true
    (be.Index_iface.insert ~tid:0 "x" 1)

let test_generation_handoff () =
  let f = F.create ~shards:1 () in
  subscribe f;
  bootstrap_empty f 0;
  ignore
    (ok (chunk f ~shard:0 ~from_rec:0 [ W.encode_ops [ W.W_insert (1, 1) ] ])
      : int);
  (* a full checkpoint on the primary retired the followed WAL: the next
     chunk opens the successor generation at record zero and the state
     carries over without a re-bootstrap *)
  Alcotest.(check int) "handoff resets the record cursor" 1
    (ok
       (chunk ~gen:1 f ~shard:0 ~from_rec:0
          [ W.encode_ops [ W.W_insert (2, 2) ] ]));
  (* stale-generation chunks are refused *)
  expect_err
    (chunk ~gen:0 f ~shard:0 ~from_rec:1 [ W.encode_ops [ W.W_insert (3, 3) ] ]);
  let d = (F.drivers f).(0) in
  Alcotest.(check (option int)) "pre-handoff state retained" (Some 1)
    (d.Index_iface.read ~tid:0 1);
  Alcotest.(check (option int)) "post-handoff chunk applied" (Some 2)
    (d.Index_iface.read ~tid:0 2)

let test_read_only_until_promoted () =
  let f = F.create ~shards:1 () in
  subscribe f;
  bootstrap_empty f 0;
  let d = (F.drivers f).(0) in
  (match d.Index_iface.insert ~tid:0 7 7 with
  | _ -> Alcotest.fail "write accepted while following"
  | exception Index_iface.Read_only -> ());
  Alcotest.(check bool) "not promoted" false (F.promoted f);
  Alcotest.(check int) "promote without a primary dir replays nothing" 0
    (ok (F.handle f ~tid:0 (Wire.R_promote { data_dir = None })));
  Alcotest.(check bool) "promoted" true (F.promoted f);
  (* the stream is sealed once promoted... *)
  expect_err (chunk f ~shard:0 ~from_rec:0 []);
  expect_err
    (F.handle f ~tid:0 (Wire.R_subscribe { key_type = "int"; shards = 1 }));
  (* ...and PROMOTE is idempotent *)
  Alcotest.(check int) "second promote" 0
    (ok (F.handle f ~tid:0 (Wire.R_promote { data_dir = None })));
  Alcotest.(check bool) "writes accepted once promoted" true
    (d.Index_iface.insert ~tid:0 7 7);
  Alcotest.(check (option int)) "write visible" (Some 7)
    (d.Index_iface.read ~tid:0 7)

(* --- snapshot bootstrap from real checkpoint pages --- *)

let test_snapshot_bootstrap () =
  with_tmp_dir (fun dir ->
      let st, _ = Store_int.open_dir ~fsync:false ~dir () in
      let t = Store_int.tree st in
      for k = 0 to 99 do
        ignore (T.insert t k (k * 2) : bool);
        W.commit (Store_int.wal st) ~tid:0 [ W.W_insert (k, k * 2) ]
      done;
      ignore (Store_int.checkpoint st : int * int);
      Store_int.close st;
      (* read the generation-1 checkpoint the way the shipper's bootstrap
         does: raw page records plus the manifest's item count *)
      let plog, _ =
        Pagestore.Log.open_dir ~dir:(Pagestore.Store.pages_dir dir 1) ()
      in
      let root =
        match Store_int.newest_manifest plog with
        | Some off -> off
        | None -> Alcotest.fail "no manifest in the pages log"
      in
      let m = Store_int.CP.manifest plog root in
      let pages =
        Array.to_list
          (Array.map (Pagestore.Log.read plog) m.Store_int.CP.pages)
      in
      Pagestore.Log.close plog;
      let items = m.Store_int.CP.item_count in
      let snap f ~last ~items pages =
        F.handle f ~tid:0
          (Wire.R_snapshot
             { shard = 0; gen = 1; start_rec = 0; start_ops = 0; pages; last; items })
      in
      let n = List.length pages in
      let first = List.filteri (fun i _ -> i < n / 2) pages in
      let rest = List.filteri (fun i _ -> i >= n / 2) pages in
      let f = F.create ~shards:1 () in
      subscribe f;
      ignore (ok (snap f ~last:false ~items:0 first) : int);
      (* chunks are refused while the bootstrap is still in flight *)
      expect_err (chunk ~gen:1 f ~shard:0 ~from_rec:0 []);
      ignore (ok (snap f ~last:true ~items rest) : int);
      let d = (F.drivers f).(0) in
      for k = 0 to 99 do
        Alcotest.(check (option int))
          (Printf.sprintf "bootstrapped key %d" k)
          (Some (k * 2))
          (d.Index_iface.read ~tid:0 k)
      done;
      (* a final chunk whose loaded count disagrees with the manifest is
         an integrity failure, not an armed stream *)
      let f2 = F.create ~shards:1 () in
      subscribe f2;
      expect_err (snap f2 ~last:true ~items first))

(* --- qcheck: any applied prefix equals the sequential oracle --- *)

let gen_case =
  QCheck.(
    triple
      (list_of_size (Gen.int_range 0 150)
         (triple (int_bound 3) (int_bound 60) (int_bound 1000)))
      (int_bound 1000) (* group-size seed *)
      (int_bound 1000) (* prefix selector *))

let wal_op (op, k, v) =
  match op with
  | 0 -> W.W_insert (k, v)
  | 1 -> W.W_update (k, v)
  | 2 -> W.W_upsert (k, v)
  | _ -> W.W_remove k

let apply_oracle o (op, k, v) =
  match op with
  | 0 -> if not (Hashtbl.mem o k) then Hashtbl.replace o k v
  | 1 -> if Hashtbl.mem o k then Hashtbl.replace o k v
  | 2 -> Hashtbl.replace o k v
  | _ -> Hashtbl.remove o k

(* split [xs] into commit groups of 1–4 ops, sizes derived from [seed] *)
let group_by seed xs =
  let rec go i acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: tl ->
        let cur = x :: cur in
        if List.length cur >= n then
          go (i + 1) (List.rev cur :: acc) [] (1 + ((seed + i) mod 4)) tl
        else go i acc cur n tl
  in
  go 0 [] [] (1 + (seed mod 4)) xs

let run_follow ~shards (ops, seed, prefix_sel) =
  let part = Bw_shard.Part.make_int ~lo:0 ~hi:63 shards in
  let cut = prefix_sel mod (List.length ops + 1) in
  let prefix = List.filteri (fun i _ -> i < cut) ops in
  let f = F.create ~shards () in
  ignore
    (ok (F.handle f ~tid:0 (Wire.R_subscribe { key_type = "int"; shards }))
      : int);
  for s = 0 to shards - 1 do
    bootstrap_empty f s
  done;
  (* route the prefix to its per-shard streams, preserving arrival order *)
  let per_shard = Array.make shards [] in
  List.iter
    (fun ((_, k, _) as o) ->
      let s = Bw_shard.Part.shard_of_int part k in
      per_shard.(s) <- o :: per_shard.(s))
    prefix;
  Array.iteri
    (fun s rev_ops ->
      let groups = group_by seed (List.map wal_op (List.rev rev_ops)) in
      let payloads = List.map W.encode_ops groups in
      if seed land 1 = 1 then
        (* everything in one multi-group chunk *)
        (if payloads <> [] then
           ignore (ok (chunk f ~shard:s ~from_rec:0 payloads) : int))
      else
        (* one chunk per commit group, acks checked along the way *)
        List.iteri
          (fun i p ->
            let acked = ok (chunk f ~shard:s ~from_rec:i [ p ]) in
            if acked <> i + 1 then
              Alcotest.failf "shard %d acked %d at record %d" s acked (i + 1))
          payloads)
    per_shard;
  let oracle = Hashtbl.create 64 in
  List.iter (apply_oracle oracle) prefix;
  let drivers = F.drivers f in
  List.for_all
    (fun k ->
      let d = drivers.(Bw_shard.Part.shard_of_int part k) in
      d.Index_iface.read ~tid:0 k = Hashtbl.find_opt oracle k)
    (List.init 64 Fun.id)

let prop_follow_prefix_oracle =
  QCheck.Test.make ~count:60
    ~name:"standby over any committed WAL prefix matches sequential oracle"
    gen_case (run_follow ~shards:1)

let prop_follow_prefix_oracle_forest =
  QCheck.Test.make ~count:30
    ~name:"3-shard standby over any committed prefix matches oracle" gen_case
    (run_follow ~shards:3)

(* --- promotion: durable-tail replay and cold-rebuild fallback --- *)

let test_promotion_tail_replay () =
  with_tmp_dir (fun dir ->
      let st, _ = Store_int.open_dir ~fsync:false ~dir () in
      let t = Store_int.tree st in
      for g = 0 to 39 do
        let ops =
          List.init 3 (fun j ->
              let k = (g * 3) + j in
              ignore (T.insert t k (k * 7) : bool);
              W.W_insert (k, k * 7))
        in
        W.commit (Store_int.wal st) ~tid:0 ops
      done;
      (* collect the stream exactly as the shipper would *)
      let cur = Pagestore.Wal.fresh_cursor () in
      let payloads = ref [] in
      ignore
        (W.tail (Store_int.wal st) cur (fun p -> payloads := p :: !payloads)
          : int);
      let payloads = List.rev !payloads in
      Store_int.close st;
      let f = F.create ~shards:1 () in
      subscribe f;
      bootstrap_empty f 0;
      (* only the first 25 records arrived before the "crash" *)
      let prefix = List.filteri (fun i _ -> i < 25) payloads in
      Alcotest.(check int) "prefix applied" 25
        (ok (chunk f ~shard:0 ~from_rec:0 prefix));
      (* promotion replays records 25..39 (45 ops) from the primary's
         on-disk WAL — the acknowledged writes the stream never shipped *)
      Alcotest.(check int) "tail replayed" 45
        (ok (F.handle f ~tid:0 (Wire.R_promote { data_dir = Some dir })));
      let d = (F.drivers f).(0) in
      for k = 0 to 119 do
        Alcotest.(check (option int))
          (Printf.sprintf "key %d after failover" k)
          (Some (k * 7))
          (d.Index_iface.read ~tid:0 k)
      done)

let test_promotion_cold_rebuild () =
  with_tmp_dir (fun dir ->
      let st, _ = Store_int.open_dir ~fsync:false ~dir () in
      let t = Store_int.tree st in
      let put k =
        ignore (T.insert t k (k + 1) : bool);
        W.commit (Store_int.wal st) ~tid:0 [ W.W_insert (k, k + 1) ]
      in
      for k = 0 to 199 do put k done;
      ignore (Store_int.checkpoint st : int * int);
      for k = 200 to 229 do put k done;
      Store_int.close st;
      (* this follower was still streaming generation 0 when the primary
         checkpointed into generation 1 and died: the WAL it was
         following is gone from disk, so promotion must fall back to a
         cold rebuild of the committed state *)
      let f = F.create ~shards:1 () in
      subscribe f;
      bootstrap_empty f 0;
      ignore
        (ok
           (chunk f ~shard:0 ~from_rec:0 [ W.encode_ops [ W.W_insert (9999, 1) ] ])
          : int);
      Alcotest.(check int) "cold rebuild replays the committed WAL suffix" 30
        (ok (F.handle f ~tid:0 (Wire.R_promote { data_dir = Some dir })));
      let d = (F.drivers f).(0) in
      Alcotest.(check (option int)) "uncommitted streamed state discarded"
        None
        (d.Index_iface.read ~tid:0 9999);
      for k = 0 to 229 do
        Alcotest.(check (option int))
          (Printf.sprintf "committed key %d" k)
          (Some (k + 1))
          (d.Index_iface.read ~tid:0 k)
      done)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "replica"
    [
      ( "wire",
        [ Alcotest.test_case "repl frame roundtrips" `Quick test_wire_roundtrip ]
      );
      ( "stream",
        [
          Alcotest.test_case "protocol guards" `Quick test_protocol_guards;
          Alcotest.test_case "string-keyed follower" `Quick test_str_follower;
          Alcotest.test_case "generation handoff" `Quick
            test_generation_handoff;
          Alcotest.test_case "read-only until promoted" `Quick
            test_read_only_until_promoted;
          Alcotest.test_case "snapshot bootstrap" `Quick
            test_snapshot_bootstrap;
          q prop_follow_prefix_oracle;
          q prop_follow_prefix_oracle_forest;
        ] );
      ( "promotion",
        [
          Alcotest.test_case "durable tail replay" `Quick
            test_promotion_tail_replay;
          Alcotest.test_case "cold-rebuild fallback" `Quick
            test_promotion_cold_rebuild;
        ] );
    ]
