(* Cluster layer tests: partition-table properties and codec, agreement
   with the process-local forest partitioner, the typed Read_only /
   Wrong_shard wire errors end to end, and the client-side router over
   in-process {1,2,3}-member clusters against a sequential oracle —
   including ops racing a concurrent range migration. *)

module Table = Bw_cluster.Table
module Slice = Bw_cluster.Slice
module Uniform = Bw_cluster.Uniform
module Gate = Bw_server.Cluster_gate
module Server = Bw_server.Server
module Wire = Bw_server.Wire
module Key = Bw_util.Key_codec

(* ------------------------------------------------------------------ *)
(* Table generators                                                    *)
(* ------------------------------------------------------------------ *)

let gen_u64 =
  QCheck.Gen.(
    map2
      (fun a b ->
        Int64.logor
          (Int64.shift_left (Int64.of_int (a land 0xFFFFFFFF)) 32)
          (Int64.of_int (b land 0xFFFFFFFF)))
      int int)

let gen_endpoint =
  QCheck.Gen.(
    map3
      (fun h p r -> { Table.ep_host = h; ep_port = p; ep_replica = r })
      (oneofl [ "127.0.0.1"; "h0"; "node.example.test" ])
      (int_range 1 65535)
      (option (pair (oneofl [ "127.0.0.1"; "r" ]) (int_range 1 65535))))

let gen_table =
  QCheck.Gen.(
    let* n = int_range 1 4 in
    let* endpoints = array_size (return n) gen_endpoint in
    let* extra_lows = list_size (int_bound 6) gen_u64 in
    let lows =
      Array.of_list (List.sort_uniq Int64.unsigned_compare (0L :: extra_lows))
    in
    let* owners = array_size (return (Array.length lows)) (int_bound (n - 1)) in
    let* epoch = map Int64.of_int small_nat in
    return (Table.make ~epoch ~endpoints ~lows ~owners))

let arb_table = QCheck.make gen_table

let prop_table_codec_roundtrip =
  QCheck.Test.make ~count:500 ~name:"table codec roundtrip" arb_table (fun t ->
      Table.equal (Table.decode (Table.encode t)) t)

let prop_table_codec_truncation =
  QCheck.Test.make ~count:500 ~name:"truncated table rejected"
    QCheck.(pair arb_table (int_bound 10_000))
    (fun (t, cut) ->
      let enc = Table.encode t in
      let cut = cut mod String.length enc in
      match Table.decode (String.sub enc 0 cut) with
      | _ -> false
      | exception Failure _ -> true)

let prop_table_owner_total =
  QCheck.Test.make ~count:500 ~name:"every slice has an owner"
    QCheck.(pair arb_table (QCheck.make gen_u64))
    (fun (t, u) ->
      let o = Table.owner t u in
      0 <= o && o < Table.n_endpoints t)

let prop_with_range_moved =
  QCheck.Test.make ~count:500 ~name:"with_range_moved reassigns exactly [lo,hi)"
    QCheck.(
      quad arb_table (QCheck.make gen_u64)
        (option (QCheck.make gen_u64))
        (pair small_nat (QCheck.make gen_u64)))
    (fun (t, lo, hi, (dsti, probe)) ->
      let dst = dsti mod Table.n_endpoints t in
      match Table.with_range_moved t ~lo ~hi ~dst with
      | exception Invalid_argument _ ->
          (* only an empty interval is rejected *)
          (match hi with
          | Some h -> Int64.unsigned_compare h lo <= 0
          | None -> false)
      | t' ->
          Table.epoch t' = Int64.add (Table.epoch t) 1L
          && Table.owner t' probe
             = (if Slice.in_range probe ~lo ~hi then dst else Table.owner t probe))

(* The cluster bootstrap table and the process-local forest partitioner
   speak the same coordinates: a fleet of N members and a forest of N
   shards route every int key to the same index. *)
let prop_uniform_matches_part =
  QCheck.Test.make ~count:500 ~name:"of_uniform agrees with Part.shard_of_int"
    QCheck.(pair (int_range 1 8) int)
    (fun (n, k) ->
      let part = Bw_shard.Part.make_int ~lo:0 n in
      let endpoints =
        Array.make n { Table.ep_host = "h"; ep_port = 1; ep_replica = None }
      in
      let tbl = Table.of_uniform ~epoch:1L endpoints (Uniform.make_int ~lo:0 n) in
      Table.owner_int tbl k = Bw_shard.Part.shard_of_int part k)

(* ------------------------------------------------------------------ *)
(* In-process clusters                                                 *)
(* ------------------------------------------------------------------ *)

let endpoint_of port =
  { Table.ep_host = "127.0.0.1"; ep_port = port; ep_replica = None }

(* Boot [n] gated servers on ephemeral loopback ports sharing one
   epoch-1 uniform table over the non-negative ints. The gates start on
   an epoch-0 placeholder (ports are unknown until the listeners are
   up) and install the real table before any traffic. *)
let with_cluster n f =
  let drivers = Array.init n (fun _ -> Harness.Drivers.Int.bwtree ()) in
  let backends = Array.map Harness.Drivers.Int.K.backend drivers in
  let u = Uniform.make_int ~lo:0 n in
  let placeholder =
    Table.of_uniform ~epoch:0L (Array.make n (endpoint_of 1)) u
  in
  let gates = Array.init n (fun i -> Gate.create ~self:i placeholder) in
  let servers =
    Array.mapi
      (fun i b ->
        let config =
          { Server.default_config with port = 0; workers = 2; gate = Some gates.(i) }
        in
        Server.start ~config b)
      backends
  in
  let endpoints = Array.map (fun s -> endpoint_of (Server.port s)) servers in
  let table = Table.of_uniform ~epoch:1L endpoints u in
  Array.iter (fun g -> ignore (Gate.install g table : bool)) gates;
  (* migration extraction scans run off the workers' tids 0..1 *)
  let scan_of i k ~n =
    let acc = ref [] in
    ignore
      (backends.(i).Index_iface.scan ~tid:3 k ~n (fun key v ->
           acc := (key, v) :: !acc)
        : int);
    List.rev !acc
  in
  Fun.protect
    ~finally:(fun () -> Array.iter Server.stop servers)
    (fun () -> f ~table ~gates ~scan_of)

(* ------------------------------------------------------------------ *)
(* Typed wire errors end to end                                        *)
(* ------------------------------------------------------------------ *)

(* A write reaching a read-only index must travel as the typed ERR code
   and surface as [Bw_client.Read_only] — not as a stringly error. *)
let test_read_only_end_to_end () =
  let inner = Harness.Drivers.Int.bwtree () in
  let ro =
    Harness.Drivers.Int.K.backend
      {
        inner with
        Index_iface.insert = (fun ~tid:_ _ _ -> raise Index_iface.Read_only);
        update = (fun ~tid:_ _ _ -> raise Index_iface.Read_only);
        remove = (fun ~tid:_ _ -> raise Index_iface.Read_only);
        batch = None;
      }
  in
  let config = { Server.default_config with port = 0; workers = 2 } in
  let srv = Server.start ~config ro in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let c = Bw_client.connect ~port:(Server.port srv) () in
      Fun.protect
        ~finally:(fun () -> Bw_client.close c)
        (fun () ->
          (match Bw_client.Int_key.put c 1 2 with
          | _ -> Alcotest.fail "write accepted by a read-only backend"
          | exception Bw_client.Read_only -> ());
          (match Bw_client.Int_key.delete c 1 with
          | _ -> Alcotest.fail "delete accepted by a read-only backend"
          | exception Bw_client.Read_only -> ());
          (* reads still served *)
          Alcotest.(check (option int))
            "read on read-only" None
            (Bw_client.Int_key.get c 1)))

(* During the seal window a covered write answers the typed read-only
   error — the router backs off and retries, resolving to success (on
   abort) or a post-flip redirect. Wrong_shard here would send the
   router into immediate same-epoch refetch loops that can exhaust its
   retry budget while the final drain runs. *)
let test_seal_answers_read_only () =
  let endpoints =
    Array.make 2 { Table.ep_host = "h"; ep_port = 1; ep_replica = None }
  in
  let tbl = Table.of_uniform ~epoch:1L endpoints (Uniform.make_int ~lo:0 2) in
  let g = Gate.create ~self:0 tbl in
  let put k =
    Gate.write g ~tid:0 (Slice.of_int k)
      (Gate.Wop_put (Key.of_int k, 1))
      (fun () -> true)
  in
  Alcotest.(check bool) "owned write applies" true (put 10);
  let m =
    match
      Gate.begin_migration g ~lo:(Slice.of_int 0)
        ~hi:(Some (Slice.of_int 100)) ~dst:1
    with
    | Ok m -> m
    | Error e -> Alcotest.fail ("admission failed: " ^ e)
  in
  Gate.quiesce_fast_writers g;
  Alcotest.(check bool) "covered write captured pre-seal" true (put 10);
  Gate.seal g m;
  (match put 10 with
  | _ -> Alcotest.fail "sealed range accepted a write"
  | exception Index_iface.Read_only -> ());
  Alcotest.(check bool) "uncovered write unaffected by the seal" true (put 200);
  Gate.abort g m;
  Alcotest.(check bool) "write resumes after abort" true (put 10)

(* A direct client hitting the wrong member gets the typed redirect
   carrying the server's epoch. *)
let test_wrong_shard_end_to_end () =
  with_cluster 2 (fun ~table ~gates:_ ~scan_of:_ ->
      let ep1 = Table.endpoint table 1 in
      let c = Bw_client.connect ~host:ep1.Table.ep_host ~port:ep1.Table.ep_port () in
      Fun.protect
        ~finally:(fun () -> Bw_client.close c)
        (fun () ->
          (* key 0 belongs to member 0 *)
          (match Bw_client.Int_key.put c 0 1 with
          | _ -> Alcotest.fail "wrong member accepted the write"
          | exception Bw_client.Wrong_shard e ->
              Alcotest.(check int64) "redirect carries the epoch" 1L e);
          (match Bw_client.Int_key.get c 0 with
          | _ -> Alcotest.fail "wrong member answered the read"
          | exception Bw_client.Wrong_shard _ -> ())))

(* ------------------------------------------------------------------ *)
(* Router vs sequential oracle                                         *)
(* ------------------------------------------------------------------ *)

type op =
  | Op_put of int * int
  | Op_ins of int * int
  | Op_upd of int * int
  | Op_del of int
  | Op_get of int
  | Op_scan of int * int

(* Keys on a coarse grid across the whole non-negative space (so they
   spread over every member), plus a dense low band and some negatives
   (which route to member 0). *)
let gen_key =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun i -> i mod 64 * (max_int / 64)) small_nat);
        (2, small_nat);
        (1, map (fun i -> -i) small_nat);
      ])

let gen_op =
  QCheck.Gen.(
    oneof
      [
        map2 (fun k v -> Op_put (k, v)) gen_key int;
        map2 (fun k v -> Op_ins (k, v)) gen_key int;
        map2 (fun k v -> Op_upd (k, v)) gen_key int;
        map (fun k -> Op_del k) gen_key;
        map (fun k -> Op_get k) gen_key;
        map2 (fun k n -> Op_scan (k, n mod 24)) gen_key small_nat;
      ])

let oracle_scan model k n =
  Hashtbl.fold (fun k' v acc -> if k' >= k then (k', v) :: acc else acc) model []
  |> List.sort compare
  |> List.filteri (fun i _ -> i < n)

(* Apply one op to the routed cluster and to the model; false on any
   observable divergence. *)
let agree r model = function
  | Op_put (k, v) ->
      Hashtbl.replace model k v;
      Bw_router.Int_key.put r k v
  | Op_ins (k, v) ->
      let fresh = not (Hashtbl.mem model k) in
      if fresh then Hashtbl.replace model k v;
      Bw_router.Int_key.put r ~mode:Wire.Insert k v = fresh
  | Op_upd (k, v) ->
      let present = Hashtbl.mem model k in
      if present then Hashtbl.replace model k v;
      Bw_router.Int_key.put r ~mode:Wire.Update k v = present
  | Op_del k ->
      let present = Hashtbl.mem model k in
      Hashtbl.remove model k;
      Bw_router.Int_key.delete r k = present
  | Op_get k -> Bw_router.Int_key.get r k = Hashtbl.find_opt model k
  | Op_scan (k, n) -> Bw_router.Int_key.scan r k ~n = oracle_scan model k n

let prop_router_oracle =
  QCheck.Test.make ~count:12 ~name:"routed cluster == sequential oracle"
    QCheck.(pair (int_range 1 3) (list_of_size (QCheck.Gen.return 80) (QCheck.make gen_op)))
    (fun (n, ops) ->
      with_cluster n (fun ~table ~gates:_ ~scan_of:_ ->
          let r = Bw_router.of_table table in
          Fun.protect
            ~finally:(fun () -> Bw_router.close r)
            (fun () ->
              let model = Hashtbl.create 64 in
              List.for_all (agree r model) ops)))

(* ------------------------------------------------------------------ *)
(* Ops racing a concurrent migration                                   *)
(* ------------------------------------------------------------------ *)

(* Move the hot range out from under a writer: every PUT the router
   acknowledged must be readable — with its final value — after the
   flip, and a full scan must see the moved keys exactly once. *)
let test_migration_race () =
  with_cluster 2 (fun ~table ~gates ~scan_of ->
      let r = Bw_router.of_table table in
      let model = Hashtbl.create 256 in
      for k = 0 to 399 do
        ignore (Bw_router.Int_key.put r k (k * 7) : bool);
        Hashtbl.replace model k (k * 7)
      done;
      (* writer hammers the migrating range, synchronously acked *)
      let acked = Atomic.make 0 and stop = Atomic.make false in
      let writer =
        Domain.spawn (fun () ->
            let r' = Bw_router.of_table table in
            let i = ref 0 in
            while not (Atomic.get stop) do
              ignore (Bw_router.Int_key.put r' (1000 + !i) (3 * !i) : bool);
              Atomic.set acked (!i + 1);
              incr i
            done;
            Bw_router.close r')
      in
      (* [0, 1_000_000) — every test key — moves to member 1 *)
      (match
         Bw_router.Migration.run ~gate:gates.(0) ~scan:(scan_of 0) ~batch:64
           ~lo:(Key.of_int 0)
           ~hi:(Some (Key.of_int 1_000_000))
           ~dst:1 ()
       with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("migration failed: " ^ e));
      Atomic.set stop true;
      Domain.join writer;
      let acked = Atomic.get acked in
      Alcotest.(check bool) "some writes raced the flip" true (acked > 0);
      for i = 0 to acked - 1 do
        Hashtbl.replace model (1000 + i) (3 * i)
      done;
      Alcotest.(check int64)
        "both gates flipped to epoch 2" 2L
        (Table.epoch (Gate.table gates.(0)));
      Alcotest.(check int64) "destination learned the flip" 2L
        (Table.epoch (Gate.table gates.(1)));
      (* a stale router (still on epoch 1) redirects and recovers *)
      List.iter
        (fun (k, v) ->
          match Bw_router.Int_key.get r k with
          | Some got when got = v -> ()
          | Some got ->
              Alcotest.failf "key %d: got %d, expected %d after the flip" k got v
          | None -> Alcotest.failf "acknowledged key %d lost across the flip" k)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []);
      (* exactly-once scan across the moved boundary *)
      let expected = oracle_scan model min_int (Hashtbl.length model + 10) in
      Alcotest.(check int)
        "scan sees every key exactly once" (List.length expected)
        (List.length (Bw_router.Int_key.scan r min_int ~n:(List.length expected + 10)));
      Alcotest.(check bool)
        "scan items match the oracle" true
        (Bw_router.Int_key.scan r min_int ~n:(List.length expected + 10) = expected);
      Bw_router.close r)

(* Migrations that cannot be admitted answer a validation error and
   leave the table untouched. *)
let test_migration_rejected () =
  with_cluster 2 (fun ~table ~gates ~scan_of ->
      let reject lo hi dst =
        match
          Bw_router.Migration.run ~gate:gates.(0) ~scan:(scan_of 0) ~lo ~hi ~dst ()
        with
        | Ok () -> Alcotest.fail "inadmissible migration ran"
        | Error _ -> ()
      in
      (* to itself, to a bad endpoint, an empty range, a range member 0
         does not own *)
      reject (Key.of_int 0) (Some (Key.of_int 10)) 0;
      reject (Key.of_int 0) (Some (Key.of_int 10)) 7;
      reject (Key.of_int 10) (Some (Key.of_int 10)) 1;
      reject (Key.of_int (max_int / 2 + 1)) None 1;
      Alcotest.(check int64)
        "epoch unchanged after rejections" (Table.epoch table)
        (Table.epoch (Gate.table gates.(0))))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "cluster"
    [
      ( "table",
        [
          q prop_table_codec_roundtrip;
          q prop_table_codec_truncation;
          q prop_table_owner_total;
          q prop_with_range_moved;
          q prop_uniform_matches_part;
        ] );
      ( "wire-errors",
        [
          Alcotest.test_case "READ_ONLY is typed end to end" `Quick
            test_read_only_end_to_end;
          Alcotest.test_case "seal answers READ_ONLY" `Quick
            test_seal_answers_read_only;
          Alcotest.test_case "EWRONGSHARD is typed end to end" `Quick
            test_wrong_shard_end_to_end;
        ] );
      ( "router",
        [
          q prop_router_oracle;
          Alcotest.test_case "ops racing a migration" `Quick
            test_migration_race;
          Alcotest.test_case "inadmissible migrations rejected" `Quick
            test_migration_rejected;
        ] );
    ]
