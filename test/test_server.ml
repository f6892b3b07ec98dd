(* Serving-layer tests: wire protocol roundtrips and rejection, the
   multi-domain TCP server against a sequential oracle under pipelined
   concurrent clients, protocol fuzz over real sockets, error isolation
   between connections, and graceful drain. *)

module Wire = Bw_server.Wire
module Server = Bw_server.Server
module Key = Bw_util.Key_codec
module IntMap = Map.Make (Int)

let start_server ?(workers = 2) ?(close_on_malformed = false)
    ?(obs = Bw_obs.Null) () =
  let backend =
    Harness.Drivers.Int.K.backend (Harness.Drivers.Int.bwtree ~obs ())
  in
  let config =
    { Server.default_config with port = 0; workers; close_on_malformed; obs }
  in
  Server.start ~config backend

let with_server ?workers ?close_on_malformed ?obs f =
  let srv = start_server ?workers ?close_on_malformed ?obs () in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv)

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                       *)
(* ------------------------------------------------------------------ *)

let roundtrip_req r = Wire.decode_req (Buffer.contents (let b = Buffer.create 64 in Wire.encode_req b r; b))
let roundtrip_resp r = Wire.decode_resp (Buffer.contents (let b = Buffer.create 64 in Wire.encode_resp b r; b))

let test_wire_roundtrip_unit () =
  let reqs =
    [
      Wire.Get "k";
      Wire.Get "";
      Wire.Put (Wire.Insert, "a", 42);
      Wire.Put (Wire.Update, "b", -1);
      Wire.Put (Wire.Upsert, "c", max_int);
      Wire.Delete "gone";
      Wire.Scan ("start", 48);
      Wire.Batch [ Wire.Get "x"; Wire.Put (Wire.Upsert, "y", 7); Wire.Scan ("z", 3) ];
      Wire.Stats;
    ]
  in
  List.iter (fun r -> assert (roundtrip_req r = r)) reqs;
  let resps =
    [
      Wire.Value None;
      Wire.Value (Some 9);
      Wire.Applied true;
      Wire.Applied false;
      Wire.Scanned [];
      Wire.Scanned [ ("a", 1); ("b", 2) ];
      Wire.Batched [ Wire.Value (Some 1); Wire.Err "nope"; Wire.Applied true ];
      Wire.Stats_payload "{}";
      Wire.Err "bad";
    ]
  in
  List.iter (fun r -> assert (roundtrip_resp r = r)) resps;
  (* Retired codes are unknown: opcodes 7–13 (replication, partition
     table, migration and ingest frames), response tags 5–7 and status
     byte 2 (typed errors). Each payload is well-formed for the frame
     its code once named, so only the code itself is refused. *)
  let enc f =
    let b = Buffer.create 32 in
    f b;
    Buffer.contents b
  in
  let int n b = Pagestore.Codec.encode_int b n in
  let str x b = Pagestore.Codec.encode_string b x in
  let byte c b = Buffer.add_char b (Char.chr c) in
  let seq fs b = List.iter (fun f -> f b) fs in
  let zeros n = seq (List.init n (fun _ -> int 0)) in
  let malformed name decode payload check =
    match decode payload with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Wire.Malformed m -> check m
  in
  List.iter
    (fun (op, body) ->
      malformed (Printf.sprintf "opcode %d" op) Wire.decode_req
        (enc (seq [ byte op; body ]))
        (fun m ->
          Alcotest.(check bool)
            (Printf.sprintf "opcode %d: %S is an unknown opcode" op m)
            true
            (String.starts_with ~prefix:"unknown opcode" m)))
    [
      (7, seq [ str "int"; int 1 ]);
      (8, seq [ zeros 5; byte 1; int 0 ]);
      (9, zeros 6);
      (10, byte 0);
      (11, byte 0);
      (12, seq [ str ""; byte 0; int 0 ]);
      (13, int 0);
    ];
  List.iter
    (fun (name, payload) ->
      malformed name Wire.decode_resp (enc payload) ignore)
    [
      ("tag 5", seq [ byte 0; byte 5; int 0 ]);
      ("tag 6", seq [ byte 0; byte 6; str "" ]);
      ("tag 7", seq [ byte 0; byte 7; int 0; byte 0 ]);
      ("status 2, code 1", seq [ byte 2; byte 1; int 7 ]);
      ("status 2, code 2", seq [ byte 2; byte 2 ]);
    ]

(* request generator: point ops, scans, one-level batches, over the
   key/string generator [str] *)
let gen_point_of str =
  QCheck.Gen.(
    oneof
      [
        map (fun k -> Wire.Get k) str;
        map3
          (fun m k v ->
            Wire.Put
              ((match m mod 3 with 0 -> Wire.Insert | 1 -> Wire.Update | _ -> Wire.Upsert), k, v))
          small_nat str int;
        map (fun k -> Wire.Delete k) str;
        map2 (fun k n -> Wire.Scan (k, n mod (Wire.max_scan + 1))) str small_nat;
      ])

let gen_req_of str =
  let gen_point = gen_point_of str in
  QCheck.Gen.(
    frequency
      [
        (6, gen_point);
        (1, return Wire.Stats);
        (2, map (fun l -> Wire.Batch l) (list_size (int_bound 8) gen_point));
      ])

let gen_req = gen_req_of QCheck.Gen.string

let arb_req = QCheck.make gen_req

let prop_wire_req_roundtrip =
  QCheck.Test.make ~count:1_000 ~name:"wire request roundtrip" arb_req
    (fun r -> roundtrip_req r = r)

(* response generator: every tag, batches one level deep *)
let gen_resp_flat =
  QCheck.Gen.(
    oneof
      [
        map (fun v -> Wire.Value v) (option int);
        map (fun b -> Wire.Applied b) bool;
        map (fun l -> Wire.Scanned l) (list_size (int_bound 8) (pair string int));
        map (fun s -> Wire.Stats_payload s) string;
        map (fun s -> Wire.Err s) string;
      ])

let gen_resp =
  QCheck.Gen.(
    frequency
      [
        (6, gen_resp_flat);
        (1, map (fun l -> Wire.Batched l) (list_size (int_bound 4) gen_resp_flat));
      ])

let arb_resp = QCheck.make gen_resp

let prop_wire_resp_roundtrip =
  QCheck.Test.make ~count:1_000 ~name:"wire response roundtrip" arb_resp
    (fun r -> roundtrip_resp r = r)

let prop_wire_resp_prefix_rejected =
  QCheck.Test.make ~count:1_000 ~name:"truncated response rejected"
    QCheck.(pair arb_resp (int_bound 10_000))
    (fun (r, cut) ->
      let b = Buffer.create 64 in
      Wire.encode_resp b r;
      let enc = Buffer.contents b in
      let cut = cut mod String.length enc in
      match Wire.decode_resp (String.sub enc 0 cut) with
      | _ -> false
      | exception Wire.Malformed _ -> true)

let prop_wire_req_prefix_rejected =
  QCheck.Test.make ~count:1_000 ~name:"truncated request rejected"
    QCheck.(pair arb_req (int_bound 10_000))
    (fun (r, cut) ->
      let b = Buffer.create 64 in
      Wire.encode_req b r;
      let enc = Buffer.contents b in
      let cut = cut mod String.length enc in
      match Wire.decode_req (String.sub enc 0 cut) with
      | _ -> false
      | exception Wire.Malformed _ -> true)

let prop_wire_garbage_never_crashes =
  QCheck.Test.make ~count:2_000 ~name:"garbage decode raises Malformed only"
    QCheck.string (fun s ->
      (match Wire.decode_req s with
      | _ -> true
      | exception Wire.Malformed _ -> true
      | exception _ -> false)
      &&
      match Wire.decode_resp s with
      | _ -> true
      | exception Wire.Malformed _ -> true
      | exception _ -> false)

(* A canonical request decoder: every accepted mutation of a request
   frame's payload (a byte overwrite, or the top or bottom bit of any
   byte flipped, which reaches bit 63 of each 8-byte field) re-encodes to
   exactly the mutated bytes. Short strings keep the frames, and the
   per-byte flips over them, small. *)
let prop_wire_req_canonical =
  QCheck.Test.make ~count:300
    ~name:"an accepted mutated request re-encodes identically"
    QCheck.(
      pair
        (make (gen_req_of (Gen.string_size (Gen.int_bound 12))))
        (list_of_size (Gen.int_range 0 16) (pair small_nat (int_bound 255))))
    (fun (r, overwrites) ->
      let b = Buffer.create 64 in
      Wire.encode_req b r;
      let e = Buffer.contents b in
      let set pos f =
        let b = Bytes.of_string e in
        Bytes.set b pos (Char.chr (f (Char.code e.[pos])));
        Bytes.to_string b
      in
      let n = String.length e in
      let muts =
        List.map (fun (pos, byte) -> set (pos mod n) (fun _ -> byte)) overwrites
        @ List.concat_map
            (fun pos ->
              [
                set pos (fun c -> c lxor 0x80); set pos (fun c -> c lxor 0x01);
              ])
            (List.init n Fun.id)
      in
      List.for_all
        (fun p ->
          match Wire.decode_req p with
          | r' ->
              let b = Buffer.create 64 in
              Wire.encode_req b r';
              String.equal (Buffer.contents b) p
          | exception Wire.Malformed _ -> true)
        muts)

(* A key length near max_int must not wrap the codec's bounds check into
   a [String.sub] that raises [Invalid_argument] past the Malformed
   handler. *)
let test_wire_overflowing_key_length () =
  let b = Buffer.create 16 in
  Wire.encode_req b (Wire.Get "k");
  let s = Bytes.of_string (Buffer.contents b) in
  (* after the opcode byte: the key's 8-byte length *)
  Bytes.set_int64_le s 1 (Int64.of_int max_int);
  match Wire.decode_req (Bytes.to_string s) with
  | _ -> Alcotest.fail "accepted"
  | exception Wire.Malformed _ -> ()

let test_wire_decoder_reassembly () =
  (* frames split at every possible byte boundary reassemble intact *)
  let reqs = [ Wire.Get "hello"; Wire.Put (Wire.Upsert, "k", 1); Wire.Stats ] in
  let stream = String.concat "" (List.map Wire.frame_req reqs) in
  for chunk = 1 to String.length stream do
    let dec = Wire.Decoder.create () in
    let got = ref [] in
    let off = ref 0 in
    while !off < String.length stream do
      let n = min chunk (String.length stream - !off) in
      Wire.Decoder.feed dec (Bytes.of_string (String.sub stream !off n)) n;
      off := !off + n;
      let rec drain () =
        match Wire.Decoder.next dec with
        | `Frame p ->
            got := Wire.decode_req p :: !got;
            drain ()
        | `Need_more -> ()
        | `Framing m -> Alcotest.fail m
      in
      drain ()
    done;
    Alcotest.(check int)
      (Printf.sprintf "all frames at chunk %d" chunk)
      (List.length reqs) (List.length !got);
    assert (List.rev !got = reqs)
  done

let test_wire_decoder_shrink () =
  (* one large frame doubles the connection buffer; extracting it must
     hand the doubled allocation back (steady state is 4 KiB again),
     carrying any buffered partial frame across the swap intact *)
  let dec = Wire.Decoder.create () in
  let cap0 = Wire.Decoder.initial_capacity in
  Alcotest.(check int) "starts at initial capacity" cap0
    (Wire.Decoder.capacity dec);
  let big = Wire.frame_req (Wire.Get (String.make 60_000 'x')) in
  let tail = Wire.frame_req (Wire.Get "tail") in
  for round = 1 to 3 do
    let stream = big ^ String.sub tail 0 5 in
    Wire.Decoder.feed dec (Bytes.of_string stream) (String.length stream);
    Alcotest.(check bool)
      (Printf.sprintf "grown past initial (round %d)" round)
      true
      (Wire.Decoder.capacity dec > cap0);
    (match Wire.Decoder.next dec with
    | `Frame p -> (
        match Wire.decode_req p with
        | Wire.Get k ->
            Alcotest.(check int) "big key intact" 60_000 (String.length k)
        | _ -> Alcotest.fail "wrong frame decoded")
    | `Need_more | `Framing _ -> Alcotest.fail "big frame not extracted");
    Alcotest.(check int)
      (Printf.sprintf "shrunk back (round %d)" round)
      cap0 (Wire.Decoder.capacity dec);
    let rest = String.sub tail 5 (String.length tail - 5) in
    Wire.Decoder.feed dec (Bytes.of_string rest) (String.length rest);
    (match Wire.Decoder.next dec with
    | `Frame p ->
        if Wire.decode_req p <> Wire.Get "tail" then
          Alcotest.fail "tail frame corrupted across the shrink"
    | `Need_more | `Framing _ -> Alcotest.fail "tail frame lost across shrink");
    match Wire.Decoder.next dec with
    | `Need_more -> ()
    | `Frame _ | `Framing _ -> Alcotest.fail "decoder should be drained"
  done

let test_wire_oversized_frame_flagged () =
  let dec = Wire.Decoder.create () in
  (* length prefix announcing max_frame + 1 *)
  let n = Wire.max_frame + 1 in
  let hdr =
    Bytes.init 4 (fun i -> Char.chr ((n lsr (8 * i)) land 0xff))
  in
  Wire.Decoder.feed dec hdr 4;
  match Wire.Decoder.next dec with
  | `Framing _ -> ()
  | `Frame _ | `Need_more -> Alcotest.fail "oversized frame not flagged"

(* ------------------------------------------------------------------ *)
(* Loopback: synchronous API                                           *)
(* ------------------------------------------------------------------ *)

let test_sync_ops () =
  with_server (fun srv ->
      let c = Bw_client.connect ~port:(Server.port srv) () in
      Fun.protect ~finally:(fun () -> Bw_client.close c) (fun () ->
          Alcotest.(check (option int)) "get missing" None (Bw_client.Int_key.get c 1);
          Alcotest.(check bool) "insert" true
            (Bw_client.Int_key.put c ~mode:Wire.Insert 1 10);
          Alcotest.(check bool) "duplicate insert" false
            (Bw_client.Int_key.put c ~mode:Wire.Insert 1 11);
          Alcotest.(check (option int)) "get" (Some 10) (Bw_client.Int_key.get c 1);
          Alcotest.(check bool) "update" true (Bw_client.Int_key.put c ~mode:Wire.Update 1 12);
          Alcotest.(check (option int)) "get updated" (Some 12) (Bw_client.Int_key.get c 1);
          Alcotest.(check bool) "update missing" false
            (Bw_client.Int_key.put c ~mode:Wire.Update 2 0);
          Alcotest.(check bool) "upsert new" true (Bw_client.Int_key.put c 2 20);
          Alcotest.(check bool) "upsert existing" true (Bw_client.Int_key.put c 2 21);
          Alcotest.(check (option int)) "upsert visible" (Some 21)
            (Bw_client.Int_key.get c 2);
          Alcotest.(check bool) "delete" true (Bw_client.Int_key.delete c 1);
          Alcotest.(check bool) "delete missing" false (Bw_client.Int_key.delete c 1);
          for k = 10 to 29 do
            ignore (Bw_client.Int_key.put c ~mode:Wire.Insert k (k * 100))
          done;
          Alcotest.(check (list (pair int int))) "scan"
            [ (10, 1000); (11, 1100); (12, 1200) ]
            (Bw_client.Int_key.scan c 10 ~n:3);
          Alcotest.(check (list (pair int int))) "scan past end" []
            (Bw_client.Int_key.scan c 1_000_000 ~n:5);
          Alcotest.(check (list (pair int int))) "scan n=0" []
            (Bw_client.Int_key.scan c 10 ~n:0);
          (* batch: replies arrive per-slot, errors isolated *)
          (match
             Bw_client.batch c
               [
                 Wire.Get (Key.of_int 2);
                 Wire.Put (Wire.Upsert, Key.of_int 3, 33);
                 Wire.Get (Key.of_int 3);
                 Wire.Get "not-a-valid-int-key";
               ]
           with
          | [ Wire.Value (Some 21); Wire.Applied true; Wire.Value (Some 33); Wire.Err _ ] ->
              ()
          | rs ->
              Alcotest.fail
                (Printf.sprintf "unexpected batch replies (%d)" (List.length rs)));
          (* stats comes back as a parseable JSON document *)
          match Bw_obs.Json.parse (Bw_client.stats c) with
          | Ok _ -> ()
          | Error e -> Alcotest.fail ("STATS not JSON: " ^ e)))

(* ------------------------------------------------------------------ *)
(* Loopback: forest backend                                            *)
(* ------------------------------------------------------------------ *)

(* The same wire surface served by a 4-shard lib/shard forest: point
   ops route by key, SCAN replies stitch shard continuations together
   (the [0, 1023] partition puts boundaries at 256/512/768), and the
   sharded stats hook feeds the STATS frame. *)
let test_forest_backend () =
  let backend =
    Harness.Drivers.Int.K.backend
      (Harness.Drivers.Int.forest ~lo:0 ~hi:1023 ~shards:4 ())
  in
  let config =
    {
      Server.default_config with
      port = 0;
      workers = 2;
      stats_json = (fun () -> {|{"forest":4}|}) |> Option.some;
    }
  in
  let srv = Server.start ~config backend in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let c = Bw_client.connect ~port:(Server.port srv) () in
      Fun.protect
        ~finally:(fun () -> Bw_client.close c)
        (fun () ->
          for k = 0 to 1023 do
            ignore (Bw_client.Int_key.put c ~mode:Wire.Insert k (k * 3))
          done;
          Alcotest.(check (list (pair int int)))
            "wire scan crosses two shard boundaries"
            (List.init 300 (fun i -> (200 + i, (200 + i) * 3)))
            (Bw_client.Int_key.scan c 200 ~n:300);
          Alcotest.(check (list (pair int int)))
            "wire scan clipped at the last shard"
            (List.init 24 (fun i -> (1000 + i, (1000 + i) * 3)))
            (Bw_client.Int_key.scan c 1000 ~n:100);
          Alcotest.(check (option int)) "point read routed" (Some 2700)
            (Bw_client.Int_key.get c 900);
          Alcotest.(check bool) "delete on a boundary" true
            (Bw_client.Int_key.delete c 512);
          Alcotest.(check (list (pair int int)))
            "scan over the deleted boundary key"
            [ (511, 1533); (513, 1539) ]
            (Bw_client.Int_key.scan c 511 ~n:2);
          Alcotest.(check string) "stats served by the config hook"
            {|{"forest":4}|} (Bw_client.stats c)))

(* ------------------------------------------------------------------ *)
(* Loopback: BATCH frames == per-op frames                             *)
(* ------------------------------------------------------------------ *)

(* The same deterministic trace replayed twice against fresh servers:
   once as individual frames, once packed into BATCH frames of varying
   size. Replies must pair up slot for slot and the final contents must
   agree. Within one BATCH the server linearizes point ops before scan
   slots (slots carry no cross-kind ordering promise), so the batched
   replay cuts a chunk whenever it reaches a scan and ships the scan as
   a singleton BATCH — still the per-slot path, but comparable against
   the per-op interleaving. *)
let test_batch_over_wire () =
  let trace seed =
    let rng = Bw_util.Rng.create ~seed in
    Array.init 600 (fun _ ->
        let k = Key.of_int (Bw_util.Rng.next_int rng 120) in
        match Bw_util.Rng.next_int rng 6 with
        | 0 -> Wire.Put (Wire.Insert, k, Bw_util.Rng.next_int rng 1000)
        | 1 -> Wire.Put (Wire.Update, k, Bw_util.Rng.next_int rng 1000)
        | 2 -> Wire.Put (Wire.Upsert, k, Bw_util.Rng.next_int rng 1000)
        | 3 -> Wire.Delete k
        | 4 -> Wire.Scan (k, Bw_util.Rng.next_int rng 10)
        | _ -> Wire.Get k)
  in
  let replay f =
    with_server (fun srv ->
        let c = Bw_client.connect ~port:(Server.port srv) () in
        Fun.protect
          ~finally:(fun () -> Bw_client.close c)
          (fun () ->
            let rs = f c in
            (rs, Bw_client.Int_key.scan c 0 ~n:Wire.max_scan)))
  in
  let ops = trace 77L in
  let per_op, contents_seq =
    replay (fun c ->
        Array.to_list ops
        |> List.concat_map (fun op ->
               match Bw_client.request c op with
               | Wire.Err m -> Alcotest.fail ("per-op ERR: " ^ m)
               | r -> [ r ]))
  in
  let batched, contents_batch =
    replay (fun c ->
        let rng = Bw_util.Rng.create ~seed:5L in
        let out = ref [] in
        let i = ref 0 in
        let n = Array.length ops in
        let ship chunk =
          List.iter
            (function
              | Wire.Err m -> Alcotest.fail ("batched ERR: " ^ m)
              | r -> out := r :: !out)
            (Bw_client.batch c chunk)
        in
        while !i < n do
          let want = min (1 + Bw_util.Rng.next_int rng 16) (n - !i) in
          (* stop a chunk at the first scan so ordering stays per-op *)
          let len = ref 0 in
          while
            !len < want
            && (match ops.(!i + !len) with Wire.Scan _ -> false | _ -> true)
          do
            incr len
          done;
          if !len = 0 then len := 1;
          ship (List.init !len (fun j -> ops.(!i + j)));
          i := !i + !len
        done;
        List.rev !out)
  in
  Alcotest.(check int) "reply counts" (List.length per_op)
    (List.length batched);
  List.iteri
    (fun i (a, b) ->
      if a <> b then Alcotest.fail (Printf.sprintf "reply %d differs" i))
    (List.combine per_op batched);
  Alcotest.(check (list (pair int int)))
    "final contents agree" contents_seq contents_batch

(* ------------------------------------------------------------------ *)
(* Loopback: served scans vs an in-process oracle                      *)
(* ------------------------------------------------------------------ *)

(* One pipelined connection interleaves inserts with SCANs of 1-95
   items (each scan may rebuild the chained leaves it visits), then a
   [max_scan] SCAN whose reply outgrows the server's reusable reply and
   scan scratch buffers, small SCANs after it (the scratch must come
   back cleared), and BATCH frames holding scans. Every reply must equal
   the oracle's. A BATCH runs its point ops before its scans. *)
let test_served_scans () =
  with_server ~workers:1 (fun srv ->
      let c = Bw_client.connect ~port:(Server.port srv) () in
      Fun.protect
        ~finally:(fun () -> Bw_client.close c)
        (fun () ->
          let oracle = ref IntMap.empty in
          let expected = Queue.create () in
          let check_replies () =
            while Bw_client.inflight c > 0 do
              let r = Bw_client.recv c in
              let want = Queue.pop expected in
              if r <> want then
                Alcotest.failf "reply %d differs from the oracle"
                  (Queue.length expected)
            done
          in
          let scanned k n =
            Wire.Scanned
              (IntMap.to_seq_from k !oracle
              |> Seq.take n
              |> Seq.map (fun (k, v) -> (Key.of_int k, v))
              |> List.of_seq)
          in
          let insert k v =
            let fresh = not (IntMap.mem k !oracle) in
            if fresh then oracle := IntMap.add k v !oracle;
            Wire.Applied fresh
          in
          let send req want =
            Bw_client.send c req;
            Queue.add want expected;
            if Bw_client.inflight c >= 16 then check_replies ()
          in
          let rng = Bw_util.Rng.create ~seed:4242L in
          let key () = Bw_util.Rng.next_int rng 40_000 in
          for i = 0 to 7_999 do
            let k = i * 5 in
            send (Wire.Put (Wire.Insert, Key.of_int k, i)) (insert k i)
          done;
          for _ = 1 to 3_000 do
            let k = key () in
            if Bw_util.Rng.next_int rng 20 = 0 then
              send (Wire.Put (Wire.Insert, Key.of_int k, -k)) (insert k (-k))
            else
              let n = 1 + Bw_util.Rng.next_int rng 95 in
              send (Wire.Scan (Key.of_int k, n)) (scanned k n)
          done;
          check_replies ();
          let big = scanned min_int Wire.max_scan in
          let reply = Buffer.create 65_536 in
          Wire.encode_resp reply big;
          Alcotest.(check bool) "max_scan reply outgrows the scratch" true
            (Buffer.length reply > 65_536);
          send (Wire.Scan (Key.of_int min_int, Wire.max_scan)) big;
          for _ = 1 to 200 do
            let k = key () and n = 1 + Bw_util.Rng.next_int rng 95 in
            send (Wire.Scan (Key.of_int k, n)) (scanned k n)
          done;
          for _ = 1 to 100 do
            let k1 = key () and k2 = key () and k3 = key () in
            let n1 = 1 + Bw_util.Rng.next_int rng 95 in
            let r_put = insert k2 k3 in
            let r_get = Wire.Value (IntMap.find_opt k3 !oracle) in
            send
              (Wire.Batch
                 [
                   Wire.Scan (Key.of_int k1, n1);
                   Wire.Put (Wire.Insert, Key.of_int k2, k3);
                   Wire.Get (Key.of_int k3);
                   Wire.Scan (Key.of_int k2, 3);
                 ])
              (Wire.Batched [ scanned k1 n1; r_put; r_get; scanned k2 3 ])
          done;
          check_replies ();
          Alcotest.(check int) "final contents" (IntMap.cardinal !oracle)
            (List.length
               (Bw_client.Int_key.scan c min_int ~n:Wire.max_scan))))

(* ------------------------------------------------------------------ *)
(* Loopback: concurrent pipelined clients vs sequential oracle          *)
(* ------------------------------------------------------------------ *)

(* Each client domain owns a disjoint key stripe and replays a
   deterministic op sequence pipelined [depth] deep; afterwards the tree
   must agree exactly with a sequential replay of the same sequences. *)
let test_concurrent_oracle () =
  let nclients = 4 and per_client_ops = 4_000 and stripe = 1_000_000 in
  let depth = 16 in
  let ops_for tid =
    let rng = Bw_util.Rng.create ~seed:(Int64.of_int (1000 + tid)) in
    Array.init per_client_ops (fun _ ->
        let k = (tid * stripe) + Bw_util.Rng.next_int rng 500 in
        match Bw_util.Rng.next_int rng 4 with
        | 0 -> Wire.Put (Wire.Insert, Key.of_int k, k)
        | 1 -> Wire.Put (Wire.Upsert, Key.of_int k, k * 2)
        | 2 -> Wire.Delete (Key.of_int k)
        | _ -> Wire.Get (Key.of_int k))
  in
  (* sequential oracle over the same ops *)
  let oracle = Hashtbl.create 4096 in
  for tid = 0 to nclients - 1 do
    Array.iter
      (fun op ->
        match op with
        | Wire.Put (Wire.Insert, k, v) ->
            let k = Key.to_int k in
            if not (Hashtbl.mem oracle k) then Hashtbl.replace oracle k v
        | Wire.Put (Wire.Upsert, k, v) -> Hashtbl.replace oracle (Key.to_int k) v
        | Wire.Delete k -> Hashtbl.remove oracle (Key.to_int k)
        | _ -> ())
      (ops_for tid)
  done;
  with_server ~workers:3 (fun srv ->
      let port = Server.port srv in
      let conns = Array.init nclients (fun _ -> Bw_client.connect ~port ()) in
      let errors = Atomic.make 0 in
      let domains =
        Array.init nclients (fun tid ->
            Domain.spawn (fun () ->
                let c = conns.(tid) in
                Array.iter
                  (fun op ->
                    (if Bw_client.inflight c >= depth then
                       match Bw_client.recv c with
                       | Wire.Err _ -> Atomic.incr errors
                       | _ -> ());
                    Bw_client.send c op)
                  (ops_for tid);
                Bw_client.flush c;
                while Bw_client.inflight c > 0 do
                  match Bw_client.recv c with
                  | Wire.Err _ -> Atomic.incr errors
                  | _ -> ()
                done))
      in
      Array.iter Domain.join domains;
      Alcotest.(check int) "no ERR replies" 0 (Atomic.get errors);
      (* verify every stripe key against the oracle over a fresh conn *)
      let v = Bw_client.connect ~port () in
      Fun.protect
        ~finally:(fun () ->
          Bw_client.close v;
          Array.iter Bw_client.close conns)
        (fun () ->
          for tid = 0 to nclients - 1 do
            for i = 0 to 499 do
              let k = (tid * stripe) + i in
              Alcotest.(check (option int))
                (Printf.sprintf "key %d" k)
                (Hashtbl.find_opt oracle k)
                (Bw_client.Int_key.get v k)
            done
          done;
          (* and the scan view agrees with the oracle's cardinality *)
          let total = Hashtbl.length oracle in
          let scanned =
            List.length (Bw_client.Int_key.scan v 0 ~n:Wire.max_scan)
          in
          Alcotest.(check int) "scan cardinality" total scanned))

(* ------------------------------------------------------------------ *)
(* Loopback: protocol fuzz and error isolation                          *)
(* ------------------------------------------------------------------ *)

(* a raw socket speaking bytes, for sending malformed traffic *)
let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  fd

let raw_send fd s = ignore (Unix.write_substring fd s 0 (String.length s))

(* read one framed response with a timeout; None on clean EOF *)
let raw_recv_resp fd =
  let dec = Wire.Decoder.create () in
  let buf = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec go () =
    match Wire.Decoder.next dec with
    | `Frame p -> Some (Wire.decode_resp p)
    | `Framing m -> Alcotest.fail ("client-side framing: " ^ m)
    | `Need_more ->
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "timeout waiting for response";
        (match Unix.select [ fd ] [] [] 1.0 with
        | [], _, _ -> go ()
        | _ -> (
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> None
            | n ->
                Wire.Decoder.feed dec buf n;
                go ()))
  in
  go ()

let expect_err name fd =
  match raw_recv_resp fd with
  | Some (Wire.Err _) -> ()
  | Some _ -> Alcotest.fail (name ^ ": expected ERR reply")
  | None -> Alcotest.fail (name ^ ": connection closed instead of ERR")

let frame_of_payload payload =
  let b = Buffer.create (String.length payload + 4) in
  Wire.add_frame b payload;
  Buffer.contents b

(* An 8-byte key outside the image of [Key_codec.of_int] is undecodable:
   the int backend used to wrap "\x00"x8 onto key 0 and answer with key
   0's value. It gets ERR, in place inside a batch too, and the
   connection keeps serving. *)
let test_out_of_range_int_key () =
  with_server (fun srv ->
      let c = Bw_client.connect ~port:(Server.port srv) () in
      Fun.protect ~finally:(fun () -> Bw_client.close c) (fun () ->
          Alcotest.(check bool) "insert key 0" true
            (Bw_client.Int_key.put c ~mode:Wire.Insert 0 7));
      let fd = raw_connect (Server.port srv) in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          List.iter
            (fun (name, k) ->
              raw_send fd (Wire.frame_req (Wire.Get k));
              expect_err name fd)
            [
              ("all-zero slice", String.make 8 '\000');
              ( "enc(42), top bit flipped",
                "\000" ^ String.sub (Key.of_int 42) 1 7 );
              ("all-ones slice", String.make 8 '\255');
            ];
          raw_send fd
            (Wire.frame_req
               (Wire.Batch
                  [ Wire.Get (String.make 8 '\000'); Wire.Get (Key.of_int 0) ]));
          (match raw_recv_resp fd with
          | Some (Wire.Batched [ Wire.Err _; Wire.Value (Some 7) ]) -> ()
          | _ -> Alcotest.fail "batch: expected ERR then key 0's value");
          raw_send fd (Wire.frame_req (Wire.Get (Key.of_int 0)));
          match raw_recv_resp fd with
          | Some (Wire.Value (Some 7)) -> ()
          | _ -> Alcotest.fail "valid GET after an undecodable key failed"))

let test_fuzz_malformed_frames () =
  let obs = Bw_obs.To (Bw_obs.create ()) in
  with_server ~obs (fun srv ->
      let port = Server.port srv in
      (* a healthy connection that must survive everything below *)
      let healthy = Bw_client.connect ~port () in
      ignore (Bw_client.Int_key.put healthy 7 70);
      let fuzz = raw_connect port in
      (* unknown opcode *)
      raw_send fuzz (frame_of_payload "\255garbage");
      expect_err "unknown opcode" fuzz;
      (* empty payload *)
      raw_send fuzz (frame_of_payload "");
      expect_err "empty payload" fuzz;
      (* truncated PUT body *)
      raw_send fuzz (frame_of_payload "\002\000abc");
      expect_err "truncated put" fuzz;
      (* random garbage payloads, all answered with ERR, none fatal *)
      let rng = Bw_util.Rng.create ~seed:99L in
      for _ = 1 to 200 do
        let len = Bw_util.Rng.next_int rng 64 in
        let payload =
          String.init len (fun _ -> Char.chr (Bw_util.Rng.next_int rng 256))
        in
        raw_send fuzz (frame_of_payload payload);
        match raw_recv_resp fuzz with
        | Some _ -> () (* usually ERR; a lucky valid frame is fine too *)
        | None -> Alcotest.fail "server dropped conn on payload-level garbage"
      done;
      (* the same connection still serves valid requests... *)
      raw_send fuzz (Wire.frame_req (Wire.Get (Key.of_int 7)));
      (match raw_recv_resp fuzz with
      | Some (Wire.Value (Some 70)) -> ()
      | _ -> Alcotest.fail "valid request after fuzz failed");
      (* ...and a framing-level violation gets ERR then close *)
      let n = Wire.max_frame + 1 in
      raw_send fuzz
        (String.init 4 (fun i -> Char.chr ((n lsr (8 * i)) land 0xff)));
      (match raw_recv_resp fuzz with
      | Some (Wire.Err _) -> ()
      | Some _ -> Alcotest.fail "framing violation: expected ERR"
      | None -> () (* close without reply is acceptable too *));
      (match raw_recv_resp fuzz with
      | None -> ()
      | Some _ -> Alcotest.fail "framing violation must close the conn");
      Unix.close fuzz;
      (* the healthy connection never noticed *)
      Alcotest.(check (option int)) "other conn unaffected" (Some 70)
        (Bw_client.Int_key.get healthy 7);
      Bw_client.close healthy;
      (* and the registry counted the abuse *)
      match obs with
      | Bw_obs.To reg ->
          let sn = Bw_obs.snapshot reg in
          let errors = List.assoc Bw_obs.C_net_errors sn.Bw_obs.sn_counters in
          Alcotest.(check bool) "net_errors counted" true (errors > 0)
      | Bw_obs.Null -> assert false)

(* An old client that still speaks the retired replication, topology
   and migration opcodes (7-13) gets one ERR per frame naming the
   opcode; its connection, the store and other clients carry on. *)
let test_retired_opcodes_refused () =
  let reg = Bw_obs.create () in
  with_server ~obs:(Bw_obs.To reg) (fun srv ->
      let port = Server.port srv in
      let c = Bw_client.connect ~port () in
      ignore (Bw_client.Int_key.put c 7 70);
      let old = raw_connect port in
      for op = 7 to 13 do
        raw_send old
          (frame_of_payload (String.make 1 (Char.chr op) ^ Key.of_int 7 ^ "\000"));
        match raw_recv_resp old with
        | Some (Wire.Err m) ->
            Alcotest.(check string)
              (Printf.sprintf "opcode %d" op)
              (Printf.sprintf "malformed request: unknown opcode %d" op)
              m
        | Some _ -> Alcotest.failf "opcode %d: expected ERR" op
        | None -> Alcotest.failf "opcode %d: connection closed" op
      done;
      Alcotest.(check int) "one error per frame" 7
        (Bw_obs.count reg Bw_obs.C_net_errors);
      raw_send old (Wire.frame_req (Wire.Get (Key.of_int 7)));
      (match raw_recv_resp old with
      | Some (Wire.Value (Some 70)) -> ()
      | _ -> Alcotest.fail "the same connection still serves GET");
      Unix.close old;
      Alcotest.(check (option int)) "other clients unaffected" (Some 70)
        (Bw_client.Int_key.get c 7);
      Bw_client.close c)

let test_close_on_malformed () =
  with_server ~close_on_malformed:true (fun srv ->
      let fuzz = raw_connect (Server.port srv) in
      raw_send fuzz (frame_of_payload "\255bad");
      expect_err "still get ERR first" fuzz;
      (match raw_recv_resp fuzz with
      | None -> ()
      | Some _ -> Alcotest.fail "conn should close after malformed frame");
      Unix.close fuzz)

let test_half_frame_then_eof () =
  (* a client dying mid-frame must not wedge or crash the server *)
  with_server (fun srv ->
      let port = Server.port srv in
      let fuzz = raw_connect port in
      let full = Wire.frame_req (Wire.Get (Key.of_int 1)) in
      raw_send fuzz (String.sub full 0 (String.length full - 2));
      Unix.close fuzz;
      (* server must still serve new connections *)
      let c = Bw_client.connect ~port () in
      ignore (Bw_client.Int_key.put c 1 1);
      Alcotest.(check (option int)) "still serving" (Some 1)
        (Bw_client.Int_key.get c 1);
      Bw_client.close c)

(* ------------------------------------------------------------------ *)
(* Loopback: string keys                                               *)
(* ------------------------------------------------------------------ *)

module Sk = Harness.Drivers.Str

(* Raw string keys whose first bytes (0x70..0x8f) straddle the boundary
   of the default 2-shard string partition, the slice space's midpoint. *)
let str_keys =
  List.init 32 (fun i -> String.make 1 (Char.chr (0x70 + i)) ^ "-user")

let str_items = List.mapi (fun i k -> (k, i)) str_keys

let serve_str backend f =
  let config = { Server.default_config with port = 0; workers = 2 } in
  let srv = Server.start ~config backend in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let c = Bw_client.connect ~port:(Server.port srv) () in
      Fun.protect ~finally:(fun () -> Bw_client.close c) (fun () -> f srv c))

let test_str_forest () =
  let part = Sk.K.part 2 in
  Alcotest.(check (pair int int))
    "keys straddle the shard boundary" (0, 1)
    ( Sk.K.shard_of part (List.hd str_keys),
      Sk.K.shard_of part (List.nth str_keys 31) );
  serve_str (Sk.K.backend (Sk.forest ~shards:2 ())) (fun srv c ->
      List.iter
        (fun (k, v) ->
          Alcotest.(check bool) "insert" true
            (Bw_client.put c ~mode:Wire.Insert k v))
        str_items;
      Alcotest.(check bool) "duplicate insert" false
        (Bw_client.put c ~mode:Wire.Insert (List.hd str_keys) 0);
      Alcotest.(check (option int)) "get routed to shard 1" (Some 31)
        (Bw_client.get c (List.nth str_keys 31));
      Alcotest.(check (option int)) "get missing" None
        (Bw_client.get c "absent");
      Alcotest.(check (list (pair string int)))
        "scan crosses the shard boundary"
        (List.filteri (fun i _ -> i >= 8 && i < 24) str_items)
        (Bw_client.scan c (List.nth str_keys 8) ~n:16);
      (* a key cut short inside its frame is answered with ERR, and the
         connection keeps serving *)
      let fd = raw_connect (Server.port srv) in
      let b = Buffer.create 32 in
      Wire.encode_req b (Wire.Get "truncated-key");
      let payload = Buffer.contents b in
      raw_send fd
        (frame_of_payload (String.sub payload 0 (String.length payload - 3)));
      expect_err "truncated key" fd;
      raw_send fd (Wire.frame_req (Wire.Get (List.hd str_keys)));
      (match raw_recv_resp fd with
      | Some (Wire.Value (Some 0)) -> ()
      | _ -> Alcotest.fail "valid request after a bad key failed");
      Unix.close fd)

(* A 2-shard durable string store, closed without a checkpoint and
   reopened: every acknowledged write comes back through WAL replay. *)
let test_str_durable () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bwt-test-server-str-%d" (Unix.getpid ()))
  in
  let with_store f =
    let dur = Sk.durable ~fsync:false ~shards:2 ~dir () in
    Fun.protect
      ~finally:(fun () -> dur.Harness.Drivers.dur_close ())
      (fun () -> f dur)
  in
  Pagestore.Store.rm_rf dir;
  Fun.protect
    ~finally:(fun () -> Pagestore.Store.rm_rf dir)
    (fun () ->
      with_store (fun dur ->
          serve_str (Sk.K.backend dur.dur_driver) (fun _ c ->
              List.iter
                (fun (k, v) -> ignore (Bw_client.put c ~mode:Wire.Insert k v))
                str_items;
              Alcotest.(check bool) "update" true
                (Bw_client.put c ~mode:Wire.Update (List.hd str_keys) 100);
              Alcotest.(check bool) "delete" true
                (Bw_client.delete c (List.nth str_keys 1))));
      with_store (fun dur ->
          Alcotest.(check int) "every write replayed" 34
            dur.dur_stats.Pagestore.Store.rs_wal_ops;
          serve_str (Sk.K.backend dur.dur_driver) (fun _ c ->
              Alcotest.(check (list (pair string int)))
                "acknowledged writes survive reopen"
                (List.filteri (fun i _ -> i <> 1)
                   ((List.hd str_keys, 100) :: List.tl str_items))
                (Bw_client.scan c "" ~n:100))))

(* ------------------------------------------------------------------ *)
(* Graceful drain                                                      *)
(* ------------------------------------------------------------------ *)

let test_drain_answers_inflight () =
  let srv = start_server () in
  let port = Server.port srv in
  let c = Bw_client.connect ~port () in
  ignore (Bw_client.Int_key.put c 5 50);
  (* pipeline a burst, then stop the server before reading replies *)
  let n = 100 in
  for _ = 1 to n do
    Bw_client.send c (Wire.Get (Key.of_int 5))
  done;
  Bw_client.flush c;
  (* Drain answers requests the server has *received*, not requests in
     the socket buffer — wait for the first reply before stopping. The
     burst left in one write, so one reply means the whole burst was
     read and decoded; without this the test races worker scheduling. *)
  let got = ref 0 in
  (match Bw_client.recv c with
  | Wire.Value (Some 50) -> incr got
  | _ -> Alcotest.fail "wrong reply to the first pipelined GET");
  Server.stop srv;
  (try
     while Bw_client.inflight c > 0 do
       match Bw_client.recv c with
       | Wire.Value (Some 50) -> incr got
       | r ->
           Alcotest.fail
             (match r with
             | Wire.Err m -> "ERR during drain: " ^ m
             | _ -> "wrong reply during drain")
     done
   with Bw_client.Server_closed ->
     Alcotest.fail "server closed before answering in-flight requests");
  Alcotest.(check int) "all in-flight answered" n !got;
  Bw_client.close c

(* bwt_server refuses a non-numeric --host before it opens --data-dir:
   the flag error exits 2 and leaves an empty directory empty, with no
   store generation, WAL or CURRENT file created. *)
let test_server_bad_host_keeps_data_dir () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bwt-test-server-host-%d" (Unix.getpid ()))
  in
  Pagestore.Store.rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> Pagestore.Store.rm_rf dir) @@ fun () ->
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process "../bin/bwt_server.exe"
      [| "bwt_server.exe"; "--host"; "localhost"; "--port"; "0";
         "--data-dir"; dir |]
      Unix.stdin null null
  in
  Unix.close null;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 2 -> ()
  | _, Unix.WEXITED c -> Alcotest.failf "bwt_server exited %d, expected 2" c
  | _ -> Alcotest.fail "bwt_server killed by a signal");
  Alcotest.(check (array string)) "data dir untouched" [||] (Sys.readdir dir)

(* bwt_server on a port another socket holds: the bind failure exits 2
   with one line naming the address, and the store it had already opened
   in --data-dir is closed, so the directory reopens as a clean
   generation-0 store. *)
let test_server_port_in_use () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bwt-test-server-port-%d" (Unix.getpid ()))
  in
  Pagestore.Store.rm_rf dir;
  let holder = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close holder;
      Pagestore.Store.rm_rf dir)
  @@ fun () ->
  Unix.bind holder (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen holder 1;
  let port =
    match Unix.getsockname holder with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process "../bin/bwt_server.exe"
      [| "bwt_server.exe"; "--port"; string_of_int port; "--workers"; "1";
         "--data-dir"; dir |]
      Unix.stdin null err_w
  in
  Unix.close null;
  Unix.close err_w;
  let err = In_channel.input_all (Unix.in_channel_of_descr err_r) in
  Unix.close err_r;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 2 -> ()
  | _, Unix.WEXITED c ->
      Alcotest.failf "bwt_server exited %d, expected 2 (stderr: %s)" c err
  | _ -> Alcotest.fail "bwt_server killed by a signal");
  (match String.split_on_char '\n' (String.trim err) with
  | [ line ] ->
      let needle = Printf.sprintf ":%d:" port in
      let m = String.length needle in
      let rec has i =
        i + m <= String.length line
        && (String.sub line i m = needle || has (i + 1))
      in
      if not (has 0) then
        Alcotest.failf "stderr %S does not name port %d" line port
  | _ -> Alcotest.failf "expected one line on stderr, got %S" err);
  let dur = Harness.Drivers.Int.durable ~shards:1 ~dir () in
  dur.dur_close ();
  let st = dur.dur_stats in
  Alcotest.(check bool) "store recovered, not recreated" false
    st.Pagestore.Store.rs_fresh;
  Alcotest.(check int) "generation 0" 0 st.rs_gen;
  Alcotest.(check int) "no torn bytes" 0 st.rs_truncated_bytes;
  Alcotest.(check int) "no dropped segments" 0 st.rs_dropped_segments

(* A host name that is not a numeric address is refused with a typed
   error naming it, before any socket exists: five failed starts (and
   connects) leave the process's open descriptors where they were. *)
let test_bad_host_no_fd_leak () =
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let backend =
    Harness.Drivers.Int.K.backend (Harness.Drivers.Int.bwtree ())
  in
  let config = { Server.default_config with host = "localhost" } in
  let refused name f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted host \"localhost\"" name
    | exception Invalid_argument m ->
        Alcotest.(check string) "names the host"
          (name ^ ": host \"localhost\" is not a numeric address")
          m
  in
  let before = open_fds () in
  for _ = 1 to 5 do
    refused "Server.start" (fun () -> ignore (Server.start ~config backend));
    refused "Bw_client.connect" (fun () ->
        ignore (Bw_client.connect ~host:"localhost" ~port:1 ()))
  done;
  Alcotest.(check int) "no descriptor leaked" before (open_fds ())

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "server"
    [
      ( "wire",
        [
          Alcotest.test_case "roundtrip units" `Quick test_wire_roundtrip_unit;
          Alcotest.test_case "decoder reassembly" `Quick
            test_wire_decoder_reassembly;
          Alcotest.test_case "oversized frame" `Quick
            test_wire_oversized_frame_flagged;
          Alcotest.test_case "decoder shrinks after a large frame" `Quick
            test_wire_decoder_shrink;
          Alcotest.test_case "overflowing key length is malformed" `Quick
            test_wire_overflowing_key_length;
          q prop_wire_req_roundtrip;
          q prop_wire_req_prefix_rejected;
          q prop_wire_resp_roundtrip;
          q prop_wire_resp_prefix_rejected;
          q prop_wire_garbage_never_crashes;
          q prop_wire_req_canonical;
        ] );
      ( "loopback",
        [
          Alcotest.test_case "sync ops" `Quick test_sync_ops;
          Alcotest.test_case "forest backend" `Quick test_forest_backend;
          Alcotest.test_case "batch frames == per-op frames" `Quick
            test_batch_over_wire;
          Alcotest.test_case "concurrent pipelined oracle" `Slow
            test_concurrent_oracle;
          Alcotest.test_case "served scans == oracle" `Quick
            test_served_scans;
          Alcotest.test_case "string-keyed forest" `Quick test_str_forest;
          Alcotest.test_case "string-keyed durable store" `Quick
            test_str_durable;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "malformed frames isolated" `Quick
            test_fuzz_malformed_frames;
          Alcotest.test_case "retired opcodes refused" `Quick
            test_retired_opcodes_refused;
          Alcotest.test_case "close-on-malformed" `Quick
            test_close_on_malformed;
          Alcotest.test_case "half frame then EOF" `Quick
            test_half_frame_then_eof;
          Alcotest.test_case "out-of-range int key is undecodable" `Quick
            test_out_of_range_int_key;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "drain answers in-flight" `Quick
            test_drain_answers_inflight;
          Alcotest.test_case "non-numeric host: typed error, no fd leak"
            `Quick test_bad_host_no_fd_leak;
          Alcotest.test_case "bwt_server: bad host leaves data dir empty"
            `Quick test_server_bad_host_keeps_data_dir;
          Alcotest.test_case "bwt_server: port in use exits 2, store closed"
            `Quick test_server_port_in_use;
        ] );
    ]
