(* Tests for the log-structured page store: the record log (CRC, segment
   boundaries, compaction) and Bw-Tree checkpoint/recovery on top. *)

module T = Bwtree.Make (Index_iface.Int_key) (Index_iface.Int_value)
module TS = Bwtree.Make (Index_iface.String_key) (Index_iface.Int_value)
module CP = Pagestore.Checkpoint.Make (Pagestore.Codec.Int) (T)
module CPS = Pagestore.Checkpoint.Make (Pagestore.Codec.Int) (TS)
module Log = Pagestore.Log

(* --- crc32 --- *)

let test_crc32_known_vectors () =
  (* standard zlib test vectors *)
  Alcotest.(check int32) "empty" 0l (Bw_util.Crc32.string "");
  Alcotest.(check int32) "abc" 0x352441C2l (Bw_util.Crc32.string "abc");
  Alcotest.(check int32) "123456789" 0xCBF43926l
    (Bw_util.Crc32.string "123456789")

let test_crc32_sensitivity () =
  let a = Bw_util.Crc32.string "hello world" in
  let b = Bw_util.Crc32.string "hello worle" in
  Alcotest.(check bool) "differs" true (a <> b)

(* --- log --- *)

let test_log_roundtrip () =
  let log = Log.create () in
  let offs =
    List.init 100 (fun i -> Log.append log (Printf.sprintf "record %d" i))
  in
  List.iteri
    (fun i off ->
      Alcotest.(check string) "roundtrip" (Printf.sprintf "record %d" i)
        (Log.read log off))
    offs;
  Alcotest.(check int) "count" 100 (Log.records log)

let test_log_segment_boundaries () =
  (* tiny segments force records onto fresh segments *)
  let log = Log.create ~segment_bytes:64 () in
  let payload = String.make 30 'x' in
  let offs = List.init 10 (fun _ -> Log.append log payload) in
  Alcotest.(check bool) "multiple segments" true (Log.segment_count log > 3);
  List.iter
    (fun off -> Alcotest.(check string) "read" payload (Log.read log off))
    offs

let test_log_oversized_record () =
  let log = Log.create ~segment_bytes:64 () in
  Alcotest.check_raises "too large"
    (Invalid_argument "Log.append: record larger than a segment") (fun () ->
      ignore (Log.append log (String.make 100 'y')))

let test_log_corruption_detected () =
  let log = Log.create () in
  let off = Log.append log "precious data" in
  Log.corrupt_for_testing log off;
  Alcotest.check_raises "crc failure"
    (Failure "Log.read: corrupted record (crc mismatch)") (fun () ->
      ignore (Log.read log off))

let test_log_bad_address () =
  let log = Log.create () in
  ignore (Log.append log "x");
  Alcotest.check_raises "bad address" (Failure "Log.read: bad address")
    (fun () -> ignore (Log.read log 999_999))

let test_log_iter_order () =
  let log = Log.create ~segment_bytes:128 () in
  let expected = List.init 50 (fun i -> Printf.sprintf "r%03d" i) in
  List.iter (fun p -> ignore (Log.append log p)) expected;
  let seen = ref [] in
  Log.iter log (fun _ p -> seen := p :: !seen);
  Alcotest.(check (list string)) "log order" expected (List.rev !seen)

let test_log_compact () =
  let log = Log.create ~segment_bytes:128 () in
  let offs = Array.init 50 (fun i -> Log.append log (Printf.sprintf "%02d" i)) in
  (* keep even records only *)
  let keep = Hashtbl.create 32 in
  Array.iteri (fun i off -> if i mod 2 = 0 then Hashtbl.replace keep off i) offs;
  let moves = Hashtbl.create 32 in
  let reclaimed =
    Log.compact log
      ~live:(fun off -> Hashtbl.mem keep off)
      ~relocate:(fun o n -> Hashtbl.replace moves o n)
  in
  Alcotest.(check bool) "reclaimed bytes" true (reclaimed > 0);
  Alcotest.(check int) "survivors" 25 (Log.records log);
  Hashtbl.iter
    (fun old i ->
      let fresh = Hashtbl.find moves old in
      Alcotest.(check string) "moved record intact"
        (Printf.sprintf "%02d" i) (Log.read log fresh))
    keep

(* --- codecs --- *)

let test_codec_roundtrip () =
  let buf = Buffer.create 64 in
  Pagestore.Codec.Int.encode buf 42;
  Pagestore.Codec.Int.encode buf (-7);
  Pagestore.Codec.String.encode buf "hello";
  Pagestore.Codec.String.encode buf "";
  let s = Buffer.contents buf in
  let pos = ref 0 in
  Alcotest.(check int) "int" 42 (Pagestore.Codec.Int.decode s ~pos);
  Alcotest.(check int) "negative int" (-7) (Pagestore.Codec.Int.decode s ~pos);
  Alcotest.(check string) "string" "hello"
    (Pagestore.Codec.String.decode s ~pos);
  Alcotest.(check string) "empty string" ""
    (Pagestore.Codec.String.decode s ~pos)

let test_codec_truncation () =
  Alcotest.check_raises "truncated" (Failure "Codec: truncated int")
    (fun () -> ignore (Pagestore.Codec.Int.decode "abc" ~pos:(ref 0)))

(* an 8-byte field outside the 63-bit int range is refused, not
   wrapped: bit 63 used to be dropped, so a flip of it decoded silently
   to the original value *)
let test_codec_int_out_of_range () =
  let field v =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    Bytes.to_string b
  in
  List.iter
    (fun (name, v) ->
      Alcotest.check_raises name (Failure "Codec: int out of range")
        (fun () -> ignore (Pagestore.Codec.Int.decode (field v) ~pos:(ref 0))))
    [
      ("bit 63 alone", Int64.min_int);
      ("bit 63 over 42", Int64.logor Int64.min_int 42L);
      ("max_int + 1", Int64.succ (Int64.of_int max_int));
      ("min_int - 1", Int64.pred (Int64.of_int min_int));
    ];
  Alcotest.(check int) "max_int still decodes" max_int
    (Pagestore.Codec.Int.decode (field (Int64.of_int max_int)) ~pos:(ref 0));
  Alcotest.(check int) "min_int still decodes" min_int
    (Pagestore.Codec.Int.decode (field (Int64.of_int min_int)) ~pos:(ref 0))

(* a length near max_int must not wrap the bounds check *)
let test_codec_string_length_overflow () =
  let buf = Buffer.create 16 in
  Pagestore.Codec.Int.encode buf max_int;
  Buffer.add_string buf "x";
  Alcotest.check_raises "rejected" (Failure "Codec: truncated string")
    (fun () ->
      ignore (Pagestore.Codec.String.decode (Buffer.contents buf) ~pos:(ref 0)))

(* qcheck properties: the wire protocol (lib/server) rides on these
   codecs, so their roundtrip/rejection behavior is load-bearing beyond
   the page store *)

let encode_int v =
  let buf = Buffer.create 16 in
  Pagestore.Codec.Int.encode buf v;
  Buffer.contents buf

let encode_str s =
  let buf = Buffer.create 32 in
  Pagestore.Codec.String.encode buf s;
  Buffer.contents buf

let prop_codec_int_roundtrip =
  QCheck.Test.make ~count:2_000 ~name:"int encode/decode identity" QCheck.int
    (fun v ->
      let s = encode_int v in
      let pos = ref 0 in
      Pagestore.Codec.Int.decode s ~pos = v && !pos = String.length s)

let prop_codec_string_roundtrip =
  QCheck.Test.make ~count:2_000 ~name:"string encode/decode identity"
    QCheck.string (fun v ->
      let s = encode_str v in
      let pos = ref 0 in
      Pagestore.Codec.String.decode s ~pos = v && !pos = String.length s)

let prop_codec_mixed_stream_roundtrip =
  QCheck.Test.make ~count:500 ~name:"mixed int/string stream roundtrips"
    QCheck.(
      list
        (oneof
           [ map (fun i -> `I i) int; map (fun s -> `S s) string ]))
    (fun items ->
      let buf = Buffer.create 256 in
      List.iter
        (function
          | `I i -> Pagestore.Codec.Int.encode buf i
          | `S s -> Pagestore.Codec.String.encode buf s)
        items;
      let enc = Buffer.contents buf in
      let pos = ref 0 in
      let decoded =
        List.map
          (function
            | `I _ -> `I (Pagestore.Codec.Int.decode enc ~pos)
            | `S _ -> `S (Pagestore.Codec.String.decode enc ~pos))
          items
      in
      decoded = items && !pos = String.length enc)

let rejects_truncated decode enc cut =
  let prefix = String.sub enc 0 cut in
  match decode prefix ~pos:(ref 0) with
  | _ -> false
  | exception Failure _ -> true

let prop_codec_int_truncated =
  QCheck.Test.make ~count:500 ~name:"truncated int rejected"
    QCheck.(pair int (int_bound 7))
    (fun (v, cut) ->
      rejects_truncated Pagestore.Codec.Int.decode (encode_int v) cut)

let prop_codec_string_truncated =
  QCheck.Test.make ~count:500 ~name:"truncated string rejected"
    QCheck.(pair string (int_bound 10_000))
    (fun (v, cut) ->
      let enc = encode_str v in
      let cut = cut mod String.length enc in
      rejects_truncated Pagestore.Codec.String.decode enc cut)

(* --- checkpoint / recover --- *)

let test_checkpoint_roundtrip () =
  let t = T.create () in
  let rng = Bw_util.Rng.create ~seed:11L in
  for _ = 1 to 20_000 do
    let k = Bw_util.Rng.next_int rng 1_000_000 in
    ignore (T.insert t k (k * 3))
  done;
  let log = Log.create () in
  let root = CP.save t log in
  let t' = CP.load log root in
  Alcotest.(check int) "cardinality preserved" (T.cardinal t) (T.cardinal t');
  Alcotest.(check bool) "contents preserved" true
    (T.scan_all t () = T.scan_all t' ());
  T.verify_invariants t'

let test_checkpoint_empty_tree () =
  let t = T.create () in
  let log = Log.create () in
  let root = CP.save t log in
  let t' = CP.load log root in
  Alcotest.(check int) "empty" 0 (T.cardinal t')

let test_checkpoint_page_granularity () =
  let t = T.create () in
  for k = 0 to 999 do
    ignore (T.insert t k k)
  done;
  let log = Log.create () in
  let root = CP.save t log in
  let m = CP.manifest log root in
  (* record granularity follows the tree's own leaves: one page record
     per non-empty leaf, in key order *)
  let leaves = ref 0 in
  T.iter_leaf_pages t (fun _ -> incr leaves);
  Alcotest.(check int) "one record per leaf" !leaves (Array.length m.pages);
  Alcotest.(check bool) "split across pages" true (Array.length m.pages > 1);
  Alcotest.(check int) "item count" 1_000 m.item_count

let test_checkpoint_string_keys () =
  let t = TS.create () in
  for i = 0 to 5_000 do
    ignore (TS.insert t (Workload.email_key_of i) i)
  done;
  let log = Log.create () in
  let root = CPS.save t log in
  let t' = CPS.load log root in
  Alcotest.(check bool) "emails preserved" true
    (TS.scan_all t () = TS.scan_all t' ())

let test_checkpoint_corruption_fails_load () =
  let t = T.create () in
  for k = 0 to 499 do
    ignore (T.insert t k k)
  done;
  let log = Log.create () in
  let root = CP.save ~page_items:64 t log in
  let m = CP.manifest log root in
  Log.corrupt_for_testing log m.pages.(3);
  Alcotest.check_raises "detected"
    (Failure "Log.read: corrupted record (crc mismatch)") (fun () ->
      ignore (CP.load log root))

let test_checkpoint_gc () =
  (* take several checkpoints, retire all but the newest, compact, and
     recover from the translated root *)
  let t = T.create () in
  let log = Log.create ~segment_bytes:4096 () in
  let roots = ref [] in
  for round = 1 to 5 do
    for k = (round - 1) * 1_000 to (round * 1_000) - 1 do
      ignore (T.insert t k k)
    done;
    roots := CP.save ~page_items:64 t log :: !roots
  done;
  let newest = List.hd !roots in
  let before = Log.bytes_used log in
  let reclaimed, fresh_roots = CP.compact_keeping log [ newest ] in
  Alcotest.(check bool) "space reclaimed" true (reclaimed > 0);
  Alcotest.(check bool) "log shrank" true (Log.bytes_used log < before);
  let root' = List.hd fresh_roots in
  let t' = CP.load log root' in
  Alcotest.(check int) "latest state recovered" 5_000 (T.cardinal t');
  Alcotest.(check bool) "contents equal" true
    (T.scan_all t () = T.scan_all t' ())

let test_checkpoint_non_unique () =
  (* a checkpoint of a non-unique index restores faithfully when loaded
     with the matching configuration, and fails loudly when loaded into a
     unique-keys tree (which would silently drop duplicates) *)
  let nuniq = Bwtree.Config.make ~unique_keys:false () in
  let t = T.create ~config:nuniq () in
  for k = 0 to 99 do
    for v = 0 to 4 do
      ignore (T.insert t k v)
    done
  done;
  let log = Log.create () in
  let root = CP.save ~page_items:64 t log in
  let t' = CP.load ~config:nuniq log root in
  Alcotest.(check bool) "duplicates preserved" true
    (List.sort compare (T.scan_all t ())
    = List.sort compare (T.scan_all t' ()));
  Alcotest.check_raises "unique-mode load rejected"
    (Failure "Checkpoint.load: manifest item count mismatch") (fun () ->
      ignore (CP.load log root))

let prop_checkpoint_roundtrip =
  QCheck.Test.make ~name:"checkpoint/load is identity" ~count:50
    QCheck.(list_of_size (Gen.int_range 0 300) (pair (int_bound 500) (int_bound 1000)))
    (fun kvs ->
      let t = T.create () in
      List.iter (fun (k, v) -> ignore (T.insert t k v)) kvs;
      let log = Log.create () in
      let root = CP.save ~page_items:32 t log in
      let t' = CP.load log root in
      T.scan_all t () = T.scan_all t' ())


(* --- file-backed log --- *)

let tmp_counter = ref 0

let with_tmp_dir f =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bwt-test-pagestore-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  Pagestore.Store.rm_rf dir;
  Fun.protect ~finally:(fun () -> Pagestore.Store.rm_rf dir) (fun () -> f dir)

let test_file_log_reopen () =
  with_tmp_dir (fun dir ->
      let payloads = List.init 100 (fun i -> Printf.sprintf "record %d" i) in
      let offs =
        let log, st = Log.open_dir ~dir () in
        Alcotest.(check int) "fresh open is empty" 0 st.os_records;
        let offs = List.map (Log.append log) payloads in
        Log.close log;
        offs
      in
      let log, st = Log.open_dir ~dir () in
      Alcotest.(check int) "all records recovered" 100 st.os_records;
      Alcotest.(check int) "no torn bytes" 0 st.os_truncated_bytes;
      Alcotest.(check int) "no dropped segments" 0 st.os_dropped_segments;
      List.iter2
        (fun p off -> Alcotest.(check string) "reopen read" p (Log.read log off))
        payloads offs;
      Log.close log)

let test_file_log_multi_segment_reopen () =
  with_tmp_dir (fun dir ->
      let payloads = List.init 60 (fun i -> Printf.sprintf "r%04d" i) in
      let log, _ = Log.open_dir ~segment_bytes:128 ~dir () in
      List.iter (fun p -> ignore (Log.append log p)) payloads;
      Alcotest.(check bool) "spans segments" true (Log.segment_count log > 3);
      Log.close log;
      let log, st = Log.open_dir ~segment_bytes:128 ~dir () in
      Alcotest.(check int) "records" 60 st.os_records;
      let seen = ref [] in
      Log.iter log (fun _ p -> seen := p :: !seen);
      Alcotest.(check (list string)) "order preserved across sealed segments"
        payloads (List.rev !seen);
      Log.close log)

let test_file_log_torn_tail () =
  with_tmp_dir (fun dir ->
      let log, _ = Log.open_dir ~dir () in
      for i = 0 to 9 do
        ignore (Log.append log (Printf.sprintf "record-%d" i))
      done;
      Log.close log;
      (* tear mid-way through the last record's payload *)
      let path = Log.segment_path ~dir 0 in
      let size = (Unix.stat path).Unix.st_size in
      Unix.truncate path (size - 3);
      let log, st = Log.open_dir ~dir () in
      Alcotest.(check int) "last record dropped" 9 st.os_records;
      Alcotest.(check bool) "torn bytes reported" true
        (st.os_truncated_bytes > 0);
      (* the log must stay appendable after the repair *)
      let off = Log.append log "after-recovery" in
      Alcotest.(check string) "append after tear" "after-recovery"
        (Log.read log off);
      Log.close log;
      let log, st = Log.open_dir ~dir () in
      Alcotest.(check int) "clean after repair" 0 st.os_truncated_bytes;
      Alcotest.(check int) "prefix plus repair append" 10 st.os_records;
      Log.close log)

let test_file_log_flip_drops_later_segments () =
  with_tmp_dir (fun dir ->
      let log, _ = Log.open_dir ~segment_bytes:128 ~dir () in
      let offs = Array.init 40 (fun i -> Log.append log (Printf.sprintf "%05d" i)) in
      let nsegs = Log.segment_count log in
      Alcotest.(check bool) "several segments" true (nsegs >= 4);
      Log.close log;
      (* flip a byte of the first record in segment 1: everything from
         that record on — including all later segments — must go *)
      let path = Log.segment_path ~dir 1 in
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
      ignore (Unix.lseek fd 2 Unix.SEEK_SET);
      ignore (Unix.write fd (Bytes.make 1 '\xFF') 0 1);
      Unix.close fd;
      let log, st = Log.open_dir ~segment_bytes:128 ~dir () in
      Alcotest.(check bool) "later segments dropped" true
        (st.os_dropped_segments >= 1);
      let survivors = Log.records log in
      Alcotest.(check bool) "only segment-0 records survive" true
        (survivors > 0 && survivors < 40);
      (* every surviving record is the exact prefix *)
      for i = 0 to survivors - 1 do
        Alcotest.(check string) "prefix content" (Printf.sprintf "%05d" i)
          (Log.read log offs.(i))
      done;
      Log.close log)

let test_file_log_compact_persists () =
  with_tmp_dir (fun dir ->
      let log, _ = Log.open_dir ~segment_bytes:256 ~dir () in
      let offs = Array.init 50 (fun i -> Log.append log (Printf.sprintf "%03d" i)) in
      let keep = Hashtbl.create 32 in
      Array.iteri (fun i off -> if i mod 3 = 0 then Hashtbl.replace keep off i) offs;
      let moves = Hashtbl.create 32 in
      ignore
        (Log.compact log
           ~live:(fun off -> Hashtbl.mem keep off)
           ~relocate:(fun o n -> Hashtbl.replace moves o n));
      Log.close log;
      let log, st = Log.open_dir ~segment_bytes:256 ~dir () in
      Alcotest.(check int) "survivors persisted" (Hashtbl.length keep)
        st.os_records;
      Hashtbl.iter
        (fun old i ->
          Alcotest.(check string) "moved record readable after reopen"
            (Printf.sprintf "%03d" i)
            (Log.read log (Hashtbl.find moves old)))
        keep;
      Log.close log)

(* regression: corrupting a zero-length record must damage that record,
   not its successor (the old code flipped the byte at [pos + header],
   which for an empty payload is the next record's magic) *)
let test_corrupt_empty_payload () =
  let log = Log.create () in
  let off_empty = Log.append log "" in
  let off_next = Log.append log "untouched" in
  Log.corrupt_for_testing log off_empty;
  Alcotest.check_raises "empty record is the one damaged"
    (Failure "Log.read: corrupted record (crc mismatch)") (fun () ->
      ignore (Log.read log off_empty));
  Alcotest.(check string) "successor record intact" "untouched"
    (Log.read log off_next)

let test_file_log_corrupt_for_testing () =
  with_tmp_dir (fun dir ->
      let log, _ = Log.open_dir ~dir () in
      let off = Log.append log "precious" in
      Log.corrupt_for_testing log off;
      Log.close log;
      (* the damage must be write-through: a fresh open sees it *)
      let _, st = Log.open_dir ~dir () in
      Alcotest.(check int) "record rejected on reopen" 0 st.os_records;
      Alcotest.(check bool) "torn bytes" true (st.os_truncated_bytes > 0))

(* qcheck: whatever byte of the file a tear or flip lands on, reopening
   recovers exactly the longest valid record prefix *)

let gen_payloads = QCheck.(list_of_size (Gen.int_range 1 40) (string_of_size (Gen.int_range 0 60)))

(* append [payloads] into a fresh single-segment file log, close it, and
   return the cumulative end offset of each record in the file *)
let write_file_log dir payloads =
  let log, _ = Log.open_dir ~segment_bytes:(1 lsl 20) ~dir () in
  let ends =
    List.map
      (fun p ->
        ignore (Log.append log p);
        Log.bytes_used log)
      payloads
  in
  Log.close log;
  ends

let prop_torn_tail_recovers_prefix =
  QCheck.Test.make ~count:60 ~name:"file log: torn tail recovers longest prefix"
    QCheck.(pair gen_payloads (int_bound 10_000))
    (fun (payloads, cut_seed) ->
      with_tmp_dir (fun dir ->
          let ends = write_file_log dir payloads in
          let total = List.fold_left max 0 ends in
          let cut = cut_seed mod (total + 1) in
          Unix.truncate (Log.segment_path ~dir 0) cut;
          let expected = List.length (List.filter (fun e -> e <= cut) ends) in
          let log, st = Log.open_dir ~segment_bytes:(1 lsl 20) ~dir () in
          let seen = ref [] in
          Log.iter log (fun _ p -> seen := p :: !seen);
          Log.close log;
          st.os_records = expected
          && List.rev !seen = List.filteri (fun i _ -> i < expected) payloads))

let prop_bit_flip_recovers_prefix =
  QCheck.Test.make ~count:60 ~name:"file log: bit flip recovers longest prefix"
    QCheck.(triple gen_payloads (int_bound 10_000) (int_bound 7))
    (fun (payloads, off_seed, bit) ->
      with_tmp_dir (fun dir ->
          let ends = write_file_log dir payloads in
          let total = List.fold_left max 0 ends in
          QCheck.assume (total > 0);
          let off = off_seed mod total in
          let path = Log.segment_path ~dir 0 in
          let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
          ignore (Unix.lseek fd off Unix.SEEK_SET);
          let b = Bytes.create 1 in
          ignore (Unix.read fd b 0 1);
          Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor (1 lsl bit)));
          ignore (Unix.lseek fd off Unix.SEEK_SET);
          ignore (Unix.write fd b 0 1);
          Unix.close fd;
          (* the record containing [off] and everything after it is gone *)
          let expected = List.length (List.filter (fun e -> e <= off) ends) in
          let log, st = Log.open_dir ~segment_bytes:(1 lsl 20) ~dir () in
          let seen = ref [] in
          Log.iter log (fun _ p -> seen := p :: !seen);
          Log.close log;
          st.os_records = expected
          && List.rev !seen = List.filteri (fun i _ -> i < expected) payloads))

(* --- durable store: WAL replay, checkpoint rotation --- *)

module Store_int = Pagestore.Store.Make (Pagestore.Codec.Int) (T)

let test_store_wal_replay () =
  with_tmp_dir (fun dir ->
      let st, stats = Store_int.open_dir ~fsync:false ~dir () in
      Alcotest.(check bool) "fresh" true stats.rs_fresh;
      let t = Store_int.tree st in
      let w = Store_int.wal st in
      for k = 0 to 199 do
        ignore (T.insert t k (k * 7));
        Store_int.W.commit w ~tid:0 [ Store_int.W.W_insert (k, k * 7) ]
      done;
      for k = 0 to 49 do
        ignore (T.delete t k (k * 7));
        Store_int.W.commit w ~tid:0 [ Store_int.W.W_remove k ]
      done;
      Store_int.close st;
      (* no checkpoint was cut: recovery is pure WAL replay *)
      let st, stats = Store_int.open_dir ~fsync:false ~dir () in
      Alcotest.(check bool) "not fresh" false stats.rs_fresh;
      Alcotest.(check int) "all ops replayed" 250 stats.rs_wal_ops;
      Alcotest.(check int) "snapshot was empty" 0 stats.rs_snapshot_items;
      let t = Store_int.tree st in
      Alcotest.(check int) "cardinality" 150 (T.cardinal t);
      Alcotest.(check (list int)) "survivor lookup" [ 350 ] (T.lookup t 50);
      Alcotest.(check (list int)) "deleted key gone" [] (T.lookup t 10);
      Store_int.close st)

let test_store_checkpoint_rotation () =
  with_tmp_dir (fun dir ->
      let st, _ = Store_int.open_dir ~fsync:false ~page_items:32 ~dir () in
      let t = Store_int.tree st in
      for k = 0 to 499 do
        ignore (T.insert t k k);
        Store_int.W.commit (Store_int.wal st) ~tid:0
          [ Store_int.W.W_insert (k, k) ]
      done;
      ignore (Store_int.checkpoint st : int * int);
      Alcotest.(check int) "generation rotated" 1 (Store_int.gen st);
      for k = 500 to 599 do
        ignore (T.insert t k k);
        Store_int.W.commit (Store_int.wal st) ~tid:0
          [ Store_int.W.W_insert (k, k) ]
      done;
      Store_int.close st;
      let st, stats = Store_int.open_dir ~fsync:false ~page_items:32 ~dir () in
      Alcotest.(check int) "recovered into gen 1" 1 stats.rs_gen;
      Alcotest.(check int) "snapshot items" 500 stats.rs_snapshot_items;
      Alcotest.(check int) "wal suffix only" 100 stats.rs_wal_ops;
      Alcotest.(check int) "full state" 600 (T.cardinal (Store_int.tree st));
      Store_int.close st;
      (* exactly one generation's directories remain on disk *)
      let entries = Array.to_list (Sys.readdir dir) in
      let gens =
        List.filter
          (fun e ->
            String.length e > 6
            && (String.sub e 0 6 = "pages-" || String.sub e 0 4 = "wal-"))
          entries
      in
      Alcotest.(check int) "old generations swept" 2 (List.length gens))

(* regression: [compact_keeping log [newest]] must drop the retired
   manifests themselves — the old gc_roots marked every manifest record
   live, so stale manifests with pre-compaction page offsets survived
   forever *)
let test_compact_keeping_drops_old_manifests () =
  let t = T.create () in
  let log = Log.create ~segment_bytes:4096 () in
  let roots = ref [] in
  for round = 1 to 4 do
    for k = (round - 1) * 500 to (round * 500) - 1 do
      ignore (T.insert t k k)
    done;
    roots := CP.save ~page_items:64 t log :: !roots
  done;
  let newest = List.hd !roots in
  let _, fresh_roots = CP.compact_keeping log [ newest ] in
  let root' = List.hd fresh_roots in
  let m = CP.manifest log root' in
  (* survivors: the kept manifest's pages plus the manifest record itself *)
  Alcotest.(check int) "only live pages and one manifest remain"
    (Array.length m.pages + 1)
    (Log.records log);
  let t' = CP.load log root' in
  Alcotest.(check bool) "kept checkpoint still loads" true
    (T.scan_all t () = T.scan_all t' ())

(* qcheck: random ops with a checkpoint cut at a random point, then a
   clean close/reopen — recovery (snapshot + WAL replay) must match a
   sequential oracle, on a single store and on a 3-shard forest *)

let gen_ops =
  QCheck.(
    list_of_size (Gen.int_range 0 120)
      (triple (int_bound 2) (int_bound 60) (int_bound 1000)))

let apply_oracle oracle (op, k, v) =
  match op with
  | 0 -> if not (Hashtbl.mem oracle k) then Hashtbl.replace oracle k v
  | 1 -> if Hashtbl.mem oracle k then Hashtbl.replace oracle k v
  | _ -> Hashtbl.remove oracle k

let scan_driver (d : int Index_iface.driver) keyspace =
  List.filter_map
    (fun k -> Option.map (fun v -> (k, v)) (d.Index_iface.read ~tid:0 k))
    (List.init keyspace Fun.id)

let oracle_bindings oracle keyspace =
  List.filter_map
    (fun k -> Option.map (fun v -> (k, v)) (Hashtbl.find_opt oracle k))
    (List.init keyspace Fun.id)

let run_store_oracle ~shards (ops, cut) =
  with_tmp_dir (fun dir ->
      let open_durable () =
        Harness.Drivers.Int.durable ~fsync:false ~hi:63 ~shards ~dir ()
      in
      let oracle = Hashtbl.create 64 in
      let dur = open_durable () in
      let d = dur.Harness.Drivers.dur_driver in
      let cut = cut mod (List.length ops + 1) in
      List.iteri
        (fun i (op, k, v) ->
          (match op with
          | 0 -> ignore (d.Index_iface.insert ~tid:0 k v)
          | 1 -> ignore (d.Index_iface.update ~tid:0 k v)
          | _ -> ignore (d.Index_iface.remove ~tid:0 k));
          apply_oracle oracle (op, k, v);
          if i + 1 = cut then dur.Harness.Drivers.dur_checkpoint ~tid:0 ())
        ops;
      d.Index_iface.thread_done ~tid:0;
      dur.Harness.Drivers.dur_close ();
      let dur = open_durable () in
      let got = scan_driver dur.Harness.Drivers.dur_driver 64 in
      dur.Harness.Drivers.dur_close ();
      got = oracle_bindings oracle 64)

let prop_store_recovery_oracle =
  QCheck.Test.make ~count:40
    ~name:"store: checkpoint + WAL replay matches sequential oracle"
    QCheck.(pair gen_ops (int_bound 200))
    (run_store_oracle ~shards:1)

let prop_forest_recovery_oracle =
  QCheck.Test.make ~count:25
    ~name:"3-shard forest: per-shard recovery matches sequential oracle"
    QCheck.(pair gen_ops (int_bound 200))
    (run_store_oracle ~shards:3)

(* --- WAL tail reader: the replication shipper's cursor --- *)

module Wal = Pagestore.Wal

let commit_groups w groups =
  List.iter (fun ops -> Store_int.W.commit w ~tid:0 ops) groups

(* [n] commit groups of 1–3 inserts each, keys starting at [lo] *)
let mk_groups lo n =
  List.init n (fun i ->
      let sz = 1 + (i mod 3) in
      List.init sz (fun j ->
          let k = lo + (i * 4) + j in
          Store_int.W.W_insert (k, k * 2)))

let test_wal_tail_order () =
  let w = Store_int.W.in_memory ~segment_bytes:192 () in
  let groups = mk_groups 0 12 in
  commit_groups w groups;
  Alcotest.(check bool) "spans several sealed segments" true
    (Log.segment_count w.Store_int.W.log > 1);
  let cur = Wal.fresh_cursor () in
  let got = ref [] in
  let fed =
    Store_int.W.tail w cur (fun p -> got := Store_int.W.decode_ops p :: !got)
  in
  Alcotest.(check int) "every record fed" 12 fed;
  Alcotest.(check bool) "payloads decode to the committed groups, in order"
    true
    (List.rev !got = groups);
  Alcotest.(check int) "cursor records" 12 cur.Wal.c_rec;
  Alcotest.(check int) "cursor ops"
    (List.length (List.concat groups))
    cur.Wal.c_ops;
  Alcotest.(check int) "drained" 0 (Store_int.W.tail w cur (fun _ -> ()))

let test_wal_tail_limit_and_resume () =
  let w = Store_int.W.in_memory ~segment_bytes:192 () in
  let groups = mk_groups 0 10 in
  commit_groups w groups;
  let cur = Wal.fresh_cursor () in
  let got = ref [] in
  let feed n = Store_int.W.tail w ~limit:n cur (fun p -> got := p :: !got) in
  Alcotest.(check int) "limit honored" 3 (feed 3);
  Alcotest.(check int) "resumes where it stopped" 4 (feed 4);
  Alcotest.(check int) "remainder" 3 (feed 100);
  Alcotest.(check bool) "exactly once, in order" true
    (List.rev_map Store_int.W.decode_ops !got = groups);
  (* a cursor parked at the sealed tail hops to later commits *)
  let more = mk_groups 1000 4 in
  commit_groups w more;
  got := [];
  Alcotest.(check int) "new records only" 4 (feed 10);
  Alcotest.(check bool) "the fresh suffix" true
    (List.rev_map Store_int.W.decode_ops !got = more)

let test_wal_seek_alignment () =
  let w = Store_int.W.in_memory () in
  let sizes = [ 3; 1; 4; 2 ] in
  let groups =
    List.mapi
      (fun i sz ->
        List.init sz (fun j -> Store_int.W.W_insert ((i * 10) + j, 0)))
      sizes
  in
  commit_groups w groups;
  (* op position 4 is the boundary after records 0 and 1 *)
  let cur = Wal.fresh_cursor () in
  Store_int.W.seek w cur ~ops:4;
  Alcotest.(check int) "aligned to a record boundary" 2 cur.Wal.c_rec;
  let got = ref [] in
  ignore (Store_int.W.tail w cur (fun p -> got := p :: !got) : int);
  Alcotest.(check bool) "tail resumes past the sought prefix" true
    (List.rev_map Store_int.W.decode_ops !got
    = [ List.nth groups 2; List.nth groups 3 ]);
  (* a mid-record position is a cursor/generation mixup: refuse loudly *)
  let cur = Wal.fresh_cursor () in
  match Store_int.W.seek w cur ~ops:5 with
  | () -> Alcotest.fail "seek to a mid-record position must fail"
  | exception Failure _ -> ()

(* [Log.compact] relocates records and invalidates outstanding cursors
   (which is why the store never compacts a WAL in place — it writes
   fresh generations). A re-established cursor must see exactly the
   survivors, still in order. *)
let test_wal_cursor_after_compaction () =
  let w = Store_int.W.in_memory ~segment_bytes:192 () in
  let groups = mk_groups 0 8 in
  commit_groups w groups;
  let offs = ref [] in
  Log.iter w.Store_int.W.log (fun off _ -> offs := off :: !offs);
  let doomed = List.filteri (fun i _ -> i < 4) (List.rev !offs) in
  ignore
    (Log.compact w.Store_int.W.log
       ~live:(fun off -> not (List.mem off doomed))
       ~relocate:(fun _ _ -> ())
      : int);
  let cur = Wal.fresh_cursor () in
  let got = ref [] in
  ignore (Store_int.W.tail w cur (fun p -> got := p :: !got) : int);
  Alcotest.(check bool) "fresh cursor sees exactly the survivors" true
    (List.rev_map Store_int.W.decode_ops !got
    = List.filteri (fun i _ -> i >= 4) groups);
  Alcotest.(check int) "survivor records" 4 cur.Wal.c_rec

(* --- incremental checkpoints: page reuse and crash safety --- *)

(* regression: a long overwrite-heavy incremental chain accretes dead
   page versions in the pages log without bound; once the dead share
   crosses [gc_dead_bytes] the next incremental must escalate to a full
   rotation and actually reclaim the bytes *)
let test_incremental_gc_escalation () =
  with_tmp_dir (fun dir ->
      let st, _ =
        Store_int.open_dir ~fsync:false ~page_items:32 ~gc_dead_bytes:8192
          ~dir ()
      in
      let t = Store_int.tree st in
      let put k v =
        ignore (T.insert t k v);
        Store_int.W.commit (Store_int.wal st) ~tid:0
          [ Store_int.W.W_insert (k, v) ]
      in
      let del k v =
        ignore (T.delete t k v);
        Store_int.W.commit (Store_int.wal st) ~tid:0 [ Store_int.W.W_remove k ]
      in
      for k = 0 to 499 do put k k done;
      ignore (Store_int.checkpoint st : int * int);
      Alcotest.(check int) "seeded in generation 1" 1 (Store_int.gen st);
      Alcotest.(check (pair int int)) "no gc yet" (0, 0) (Store_int.gc_stats st);
      (* churn: every round rewrites every key (so every page), retiring
         the previous round's page copies in the log *)
      let value r k = (r * 1000) + k in
      let rounds = ref 0 in
      while fst (Store_int.gc_stats st) = 0 && !rounds < 32 do
        incr rounds;
        for k = 0 to 499 do
          del k (value (!rounds - 1) k);
          put k (value !rounds k)
        done;
        ignore (Store_int.checkpoint ~mode:`Incremental st : int * int)
      done;
      let runs, reclaimed = Store_int.gc_stats st in
      Alcotest.(check bool) "chain escalated within bound" true (!rounds < 32);
      Alcotest.(check int) "one escalation" 1 runs;
      Alcotest.(check bool)
        (Printf.sprintf "reclaimed bytes pinned positive (got %d)" reclaimed)
        true (reclaimed > 0);
      Alcotest.(check int) "escalation rotated the generation" 2
        (Store_int.gen st);
      (* the escalated checkpoint is a real one: recovery restores the
         newest values with an empty-to-short WAL suffix *)
      put 500 42;
      Store_int.close st;
      let st, rs = Store_int.open_dir ~fsync:false ~page_items:32 ~dir () in
      Alcotest.(check int) "recovered into the gc generation" 2 rs.rs_gen;
      Alcotest.(check int) "replay suffix is the post-gc tail" 1 rs.rs_wal_ops;
      let t = Store_int.tree st in
      Alcotest.(check int) "cardinality" 501 (T.cardinal t);
      Alcotest.(check (list int)) "newest round's value survived"
        [ value !rounds 7 ]
        (T.lookup t 7);
      Store_int.close st)

let test_incremental_checkpoint () =
  with_tmp_dir (fun dir ->
      let st, _ = Store_int.open_dir ~fsync:false ~dir () in
      let t = Store_int.tree st in
      let put k =
        ignore (T.insert t k (k * 3));
        Store_int.W.commit (Store_int.wal st) ~tid:0
          [ Store_int.W.W_insert (k, k * 3) ]
      in
      for k = 0 to 1999 do put k done;
      ignore (Store_int.checkpoint st : int * int);
      Alcotest.(check int) "full checkpoint rotated" 1 (Store_int.gen st);
      for k = 2000 to 2009 do put k done;
      let written, reused = Store_int.checkpoint ~mode:`Incremental st in
      Alcotest.(check int) "no rotation" 1 (Store_int.gen st);
      Alcotest.(check bool) "unchanged leaves reused by address" true
        (reused > written);
      Alcotest.(check bool) "changed leaves written" true (written >= 1);
      for k = 2010 to 2014 do put k done;
      Store_int.close st;
      (* recovery takes the newest decodable manifest: the incremental
         one folds 2010 items and leaves a 5-op replay suffix *)
      let st, rs = Store_int.open_dir ~fsync:false ~dir () in
      Alcotest.(check int) "generation unchanged" 1 rs.rs_gen;
      Alcotest.(check int) "snapshot items from the incremental manifest"
        2010 rs.rs_snapshot_items;
      Alcotest.(check int) "short replay suffix" 5 rs.rs_wal_ops;
      Alcotest.(check int) "full state" 2015 (T.cardinal (Store_int.tree st));
      Store_int.close st;
      (* torn incremental append: corrupt the pages-log tail (the fresh
         manifest); recovery must fall back to the full manifest and
         replay the longer WAL suffix — same final state *)
      let plog, _ =
        Log.open_dir ~dir:(Pagestore.Store.pages_dir dir 1) ()
      in
      let last = ref None in
      Log.iter plog (fun off _ -> last := Some off);
      (match !last with
      | Some off -> Log.corrupt_for_testing plog off
      | None -> Alcotest.fail "pages log is empty");
      Log.close plog;
      let st, rs = Store_int.open_dir ~fsync:false ~dir () in
      Alcotest.(check int) "fell back to the full manifest" 2000
        rs.rs_snapshot_items;
      Alcotest.(check int) "full suffix replayed" 15 rs.rs_wal_ops;
      Alcotest.(check int) "state intact" 2015
        (T.cardinal (Store_int.tree st));
      Store_int.close st)

(* --- read-only inspection must not move a byte --- *)

let digest_dir root =
  let rec walk acc path =
    if Sys.is_directory path then
      Array.fold_left
        (fun acc e -> walk acc (Filename.concat path e))
        acc (Sys.readdir path)
    else (path, Digest.file path) :: acc
  in
  List.sort compare (walk [] root)

let test_inspect_dir_read_only () =
  with_tmp_dir (fun dir ->
      let st, _ = Store_int.open_dir ~fsync:false ~dir () in
      let t = Store_int.tree st in
      for k = 0 to 99 do
        ignore (T.insert t k (k + 1));
        Store_int.W.commit (Store_int.wal st) ~tid:0
          [ Store_int.W.W_insert (k, k + 1) ]
      done;
      ignore (Store_int.checkpoint st : int * int);
      for k = 100 to 119 do
        ignore (T.insert t k (k + 1));
        Store_int.W.commit (Store_int.wal st) ~tid:0
          [ Store_int.W.W_insert (k, k + 1) ]
      done;
      Store_int.close st;
      let before = digest_dir dir in
      (match Store_int.inspect_dir ~dir () with
      | None -> Alcotest.fail "inspect_dir could not load the store"
      | Some (t, rs) ->
          Alcotest.(check int) "generation" 1 rs.rs_gen;
          Alcotest.(check int) "snapshot items" 100 rs.rs_snapshot_items;
          Alcotest.(check int) "wal suffix" 20 rs.rs_wal_ops;
          Alcotest.(check int) "contents" 120 (T.cardinal t));
      Alcotest.(check bool) "no byte of the store was touched" true
        (digest_dir dir = before))

(* --- decoders of untrusted payloads --- *)

(* WAL op groups arrive from disk, from WALCHUNK frames and from a
   migration's capture log (string keys); checkpoint manifests from a
   pages log that may hold a torn or foreign record. Malformed input must
   raise [Failure] only: [Store.newest_manifest] and the replication
   error paths catch nothing else. *)
module WI = Wal.Make (Pagestore.Codec.Int) (Pagestore.Codec.Int)
module WS = Wal.Make (Pagestore.Codec.String) (Pagestore.Codec.Int)

let raises_failure name f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" name
  | exception Failure _ -> ()
  | exception e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e)

let with_i64 e off v =
  let b = Bytes.of_string e in
  Bytes.set_int64_le b off (Int64.of_int v);
  Bytes.to_string b

let test_decode_ops_malformed () =
  let e = WI.encode_ops [ WI.W_insert (1, 2); WI.W_remove 3 ] in
  let bad =
    [
      ("empty", "");
      ("count without ops", String.sub e 0 8);
      ("truncated op tag", String.sub e 0 25);
      ("count -1", with_i64 e 0 (-1));
      ("count max_int", with_i64 e 0 max_int);
      ("count beyond ops", with_i64 e 0 3);
      ("trailing bytes", e ^ "r");
    ]
  in
  List.iter (fun (name, p) -> raises_failure name (fun () -> WI.decode_ops p)) bad;
  let s = WS.encode_ops [ WS.W_upsert ("k", 1) ] in
  raises_failure "string key length max_int" (fun () ->
      WS.decode_ops (with_i64 s 9 max_int))

let test_decode_manifest_malformed () =
  let e =
    CP.encode_manifest ~wal_gen:1 ~wal_pos:2 ~pages:[| 10; 20; 30 |]
      ~item_count:4
  in
  let bad =
    [
      ("count -1", with_i64 e 1 (-1));
      ("count max_int", with_i64 e 1 max_int);
      ("count short", with_i64 e 1 2);
      ("trailing bytes", e ^ "\000");
    ]
  in
  List.iter
    (fun (name, p) -> raises_failure name (fun () -> CP.decode_manifest p))
    bad;
  (* the recovery scan skips a malformed manifest for the one before it *)
  let log = Log.create () in
  let good = Log.append log e in
  ignore (Log.append log (with_i64 e 1 (-1)));
  Alcotest.(check (option int)) "newest decodable manifest" (Some good)
    (Store_int.newest_manifest log)

(* every truncation, [flips] byte overwrites, and each i64 field at
   [fields] set to -1, 0 and max_int *)
let mutations e ~fields flips =
  let plen = String.length e in
  List.init plen (fun l -> String.sub e 0 l)
  @ List.map
      (fun (pos, byte) ->
        let b = Bytes.of_string e in
        Bytes.set b (pos mod plen) (Char.chr byte);
        Bytes.to_string b)
      flips
  @ List.concat_map
      (fun off -> List.map (with_i64 e off) [ -1; 0; max_int ])
      (List.filter (fun off -> off + 8 <= plen) fields)

(* [decode] a mutation: a value or [Failure]; any other exception
   escapes and fails the property *)
let survives decode p =
  match decode p with _ -> true | exception Failure _ -> true

(* a real encoding with a byte appended *)
let rejects_trailing decode e =
  match decode (e ^ "\000") with _ -> false | exception Failure _ -> true

let flips_gen =
  QCheck.(list_of_size (Gen.int_range 0 32) (pair small_nat (int_bound 255)))

let int_op_gen =
  QCheck.(
    map
      (fun (tag, k, v) ->
        match tag with
        | 0 -> WI.W_insert (k, v)
        | 1 -> WI.W_update (k, v)
        | 2 -> WI.W_upsert (k, v)
        | _ -> WI.W_remove k)
      (triple (int_bound 3) int int))

let prop_fuzz_decode_ops =
  QCheck.Test.make ~name:"decode_ops of a mutated group raises only Failure"
    ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 0 8) int_op_gen) flips_gen)
    (fun (ops, flips) ->
      let e = WI.encode_ops ops in
      rejects_trailing WI.decode_ops e
      && List.for_all (survives WI.decode_ops) (mutations e ~fields:[ 0 ] flips))

let prop_fuzz_decode_ops_str =
  QCheck.Test.make
    ~name:"decode_ops of a mutated string-key group raises only Failure"
    ~count:200
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 6)
           (pair (string_of_size (Gen.int_range 0 12)) int))
        flips_gen)
    (fun (kvs, flips) ->
      let e = WS.encode_ops (List.map (fun (k, v) -> WS.W_upsert (k, v)) kvs) in
      (* the count, and the first key's length after its tag *)
      rejects_trailing WS.decode_ops e
      && List.for_all (survives WS.decode_ops)
           (mutations e ~fields:[ 0; 9 ] flips))

let prop_fuzz_decode_manifest =
  QCheck.Test.make ~name:"decode_manifest of a mutated record raises only Failure"
    ~count:200
    QCheck.(
      triple (array_of_size (Gen.int_range 0 8) int) (triple int int int)
        flips_gen)
    (fun (pages, (item_count, wal_gen, wal_pos), flips) ->
      let e = CP.encode_manifest ~wal_gen ~wal_pos ~pages ~item_count in
      rejects_trailing CP.decode_manifest e
      && List.for_all (survives CP.decode_manifest)
           (mutations e ~fields:[ 1 ] flips))

(* Canonical decoders: an accepted mutation must re-encode to exactly
   the mutated bytes, or two encodings would decode to one value. Beyond
   the random overwrites, flip the top and bottom bit of every byte, so
   bit 63 of each 8-byte field is tried wherever it sits. *)
let bit_flips e =
  List.concat_map
    (fun pos ->
      List.map
        (fun bit ->
          let b = Bytes.of_string e in
          Bytes.set b pos (Char.chr (Char.code e.[pos] lxor bit));
          Bytes.to_string b)
        [ 0x80; 0x01 ])
    (List.init (String.length e) Fun.id)

let canonical decode encode p =
  match decode p with
  | v -> String.equal (encode v) p
  | exception Failure _ -> true

let prop_canonical_ops =
  QCheck.Test.make ~name:"an accepted mutated group re-encodes identically"
    ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 0 8) int_op_gen) flips_gen)
    (fun (ops, flips) ->
      let e = WI.encode_ops ops in
      List.for_all
        (canonical WI.decode_ops WI.encode_ops)
        (mutations e ~fields:[ 0 ] flips @ bit_flips e))

let prop_canonical_ops_str =
  QCheck.Test.make
    ~name:"an accepted mutated string-key group re-encodes identically"
    ~count:200
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 6)
           (pair (string_of_size (Gen.int_range 0 12)) int))
        flips_gen)
    (fun (kvs, flips) ->
      let e = WS.encode_ops (List.map (fun (k, v) -> WS.W_upsert (k, v)) kvs) in
      List.for_all
        (canonical WS.decode_ops WS.encode_ops)
        (mutations e ~fields:[ 0; 9 ] flips @ bit_flips e))

let prop_canonical_manifest =
  QCheck.Test.make
    ~name:"an accepted mutated manifest re-encodes identically" ~count:200
    QCheck.(
      triple (array_of_size (Gen.int_range 0 8) int) (triple int int int)
        flips_gen)
    (fun (pages, (item_count, wal_gen, wal_pos), flips) ->
      let e = CP.encode_manifest ~wal_gen ~wal_pos ~pages ~item_count in
      let encode (m : CP.manifest) =
        CP.encode_manifest ~wal_gen:m.wal_gen ~wal_pos:m.wal_pos
          ~pages:m.pages ~item_count:m.item_count
      in
      List.for_all
        (canonical CP.decode_manifest encode)
        (mutations e ~fields:[ 1 ] flips @ bit_flips e))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "pagestore"
    [
      ( "crc32",
        [
          Alcotest.test_case "known vectors" `Quick test_crc32_known_vectors;
          Alcotest.test_case "sensitivity" `Quick test_crc32_sensitivity;
        ] );
      ( "log",
        [
          Alcotest.test_case "roundtrip" `Quick test_log_roundtrip;
          Alcotest.test_case "segment boundaries" `Quick
            test_log_segment_boundaries;
          Alcotest.test_case "oversized record" `Quick test_log_oversized_record;
          Alcotest.test_case "corruption detected" `Quick
            test_log_corruption_detected;
          Alcotest.test_case "bad address" `Quick test_log_bad_address;
          Alcotest.test_case "iteration order" `Quick test_log_iter_order;
          Alcotest.test_case "compaction" `Quick test_log_compact;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "truncation" `Quick test_codec_truncation;
          Alcotest.test_case "int out of range" `Quick
            test_codec_int_out_of_range;
          Alcotest.test_case "string length overflow" `Quick
            test_codec_string_length_overflow;
          q prop_codec_int_roundtrip;
          q prop_codec_string_roundtrip;
          q prop_codec_mixed_stream_roundtrip;
          q prop_codec_int_truncated;
          q prop_codec_string_truncated;
        ] );
      ( "file log",
        [
          Alcotest.test_case "reopen roundtrip" `Quick test_file_log_reopen;
          Alcotest.test_case "multi-segment reopen" `Quick
            test_file_log_multi_segment_reopen;
          Alcotest.test_case "torn tail truncated" `Quick
            test_file_log_torn_tail;
          Alcotest.test_case "bit flip drops later segments" `Quick
            test_file_log_flip_drops_later_segments;
          Alcotest.test_case "compaction persists" `Quick
            test_file_log_compact_persists;
          Alcotest.test_case "corrupt empty payload (regression)" `Quick
            test_corrupt_empty_payload;
          Alcotest.test_case "corruption is write-through" `Quick
            test_file_log_corrupt_for_testing;
          q prop_torn_tail_recovers_prefix;
          q prop_bit_flip_recovers_prefix;
        ] );
      ( "store",
        [
          Alcotest.test_case "WAL replay" `Quick test_store_wal_replay;
          Alcotest.test_case "checkpoint rotation" `Quick
            test_store_checkpoint_rotation;
          Alcotest.test_case "compact_keeping drops old manifests \
                              (regression)" `Quick
            test_compact_keeping_drops_old_manifests;
          Alcotest.test_case "incremental checkpoint" `Quick
            test_incremental_checkpoint;
          Alcotest.test_case "incremental gc escalation (regression)" `Quick
            test_incremental_gc_escalation;
          Alcotest.test_case "inspect_dir is read-only" `Quick
            test_inspect_dir_read_only;
          q prop_store_recovery_oracle;
          q prop_forest_recovery_oracle;
        ] );
      ( "wal tail",
        [
          Alcotest.test_case "feeds committed groups in order" `Quick
            test_wal_tail_order;
          Alcotest.test_case "limit and resume" `Quick
            test_wal_tail_limit_and_resume;
          Alcotest.test_case "seek aligns to record boundaries" `Quick
            test_wal_seek_alignment;
          Alcotest.test_case "compaction invalidates cursors" `Quick
            test_wal_cursor_after_compaction;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "empty tree" `Quick test_checkpoint_empty_tree;
          Alcotest.test_case "page granularity" `Quick
            test_checkpoint_page_granularity;
          Alcotest.test_case "string keys" `Quick test_checkpoint_string_keys;
          Alcotest.test_case "corruption fails load" `Quick
            test_checkpoint_corruption_fails_load;
          Alcotest.test_case "gc keeps newest" `Quick test_checkpoint_gc;
          Alcotest.test_case "non-unique config" `Quick
            test_checkpoint_non_unique;
          q prop_checkpoint_roundtrip;
        ] );
      ( "decoders",
        [
          Alcotest.test_case "decode_ops rejects malformed groups" `Quick
            test_decode_ops_malformed;
          Alcotest.test_case "decode_manifest rejects malformed records"
            `Quick test_decode_manifest_malformed;
          q prop_fuzz_decode_ops;
          q prop_fuzz_decode_ops_str;
          q prop_fuzz_decode_manifest;
          q prop_canonical_ops;
          q prop_canonical_ops_str;
          q prop_canonical_manifest;
        ] );
    ]
