(* Tests for the range-partitioned shard router (lib/shard): partition
   arithmetic (unit + qcheck), cross-shard scan continuation with
   exactly-once visits, observational equivalence of an N-shard forest
   against a single tree under random interleaved ops, and a short
   stress-oracle run against a forest subject. *)

module P = Bw_shard.Part
module D = Harness.Drivers
module I = Index_iface
module Key = Bw_util.Key_codec

let tiny =
  Bwtree.Config.make ~leaf_max:8 ~inner_max:6 ~leaf_chain_max:4
    ~inner_chain_max:2 ~leaf_min:2 ~inner_min:2 ()

(* ------------------------------------------------------------------ *)
(* Partition arithmetic                                                *)
(* ------------------------------------------------------------------ *)

let test_part_units () =
  let p = P.make_int ~lo:0 ~hi:1023 4 in
  Alcotest.(check int) "count" 4 (P.count p);
  (* 1024 keys over 4 shards: boundaries at 256, 512, 768 *)
  List.iter
    (fun (k, s) ->
      Alcotest.(check int) (Printf.sprintf "shard of %d" k) s
        (P.shard_of_int p k))
    [
      (0, 0); (255, 0); (256, 1); (511, 1); (512, 2); (767, 2); (768, 3);
      (1023, 3);
      (* out-of-range keys clamp to the edge shards *)
      (-1, 0); (min_int, 0); (1024, 3); (max_int, 3);
    ];
  List.iter
    (fun i ->
      Alcotest.(check int) (Printf.sprintf "floor of shard %d" i) (256 * i)
        (P.floor_int p i))
    [ 1; 2; 3 ];
  Alcotest.(check int) "floor of shard 0" min_int (P.floor_int p 0);
  (* full-range partition: floors are exact shard boundaries *)
  let p8 = P.make_int 8 in
  for i = 1 to 7 do
    Alcotest.(check int) "floor lands in its shard" i
      (P.shard_of_int p8 (P.floor_int p8 i));
    Alcotest.(check int) "floor - 1 lands in the previous shard" (i - 1)
      (P.shard_of_int p8 (P.floor_int p8 i - 1))
  done;
  (* binary partitions: every floor routes back to its own shard *)
  let pb = P.make ~lo:"a" ~hi:"z" 5 in
  for i = 1 to 4 do
    Alcotest.(check int) "binary floor lands in its shard" i
      (P.shard_of_binary pb (P.floor_binary pb i))
  done;
  Alcotest.(check string) "binary floor of shard 0" "" (P.floor_binary pb 0);
  Alcotest.check_raises "shard count < 1"
    (Invalid_argument "Bw_shard.Part.make: shard count < 1") (fun () ->
      ignore (P.make 0));
  Alcotest.check_raises "inverted int bounds"
    (Invalid_argument "Bw_shard.Part.make_int: hi must be > lo") (fun () ->
      ignore (P.make_int ~lo:5 ~hi:5 2))

(* arbitrary ints over the full 63-bit range (QCheck.int is uniform
   only over a smaller span) *)
let gen_key = QCheck.(map Int64.to_int int64)

let prop_int_monotone =
  QCheck.Test.make ~name:"int shards monotone, floors are lower bounds"
    ~count:1000
    QCheck.(pair (int_range 2 9) (pair gen_key gen_key))
    (fun (n, (a, b)) ->
      let p = P.make_int n in
      let a, b = (min a b, max a b) in
      let sa = P.shard_of_int p a and sb = P.shard_of_int p b in
      0 <= sa && sa <= sb && sb < n && P.floor_int p sa <= a
      && P.floor_int p sb <= b)

let prop_codec_agreement =
  QCheck.Test.make ~name:"shard_of_binary (of_int k) == shard_of_int k"
    ~count:1000
    QCheck.(pair (int_range 1 9) gen_key)
    (fun (n, k) ->
      let pi = P.make_int n and pb = P.make n in
      P.shard_of_binary pi (Key.of_int k) = P.shard_of_int pi k
      && P.shard_of_binary pb (Key.of_int k) = P.shard_of_int pb k)

let prop_binary_monotone =
  QCheck.Test.make ~name:"binary shards monotone, floors are lower bounds"
    ~count:1000
    QCheck.(pair (int_range 2 9) (pair string string))
    (fun (n, (a, b)) ->
      let p = P.make n in
      let a, b = if String.compare a b <= 0 then (a, b) else (b, a) in
      let sa = P.shard_of_binary p a and sb = P.shard_of_binary p b in
      0 <= sa && sa <= sb && sb < n
      && String.compare (P.floor_binary p sa) a <= 0)

(* A plain-int model of [make_int] over ranges narrow enough that no
   int arithmetic overflows: the stride is ceil(width / n), a key's
   shard is its offset from [lo] divided by the stride, clamped to the
   edge shards, and shard [i]'s floor is [lo + i * stride]. *)
let prop_int_model =
  QCheck.Test.make ~name:"make_int matches a plain-int model" ~count:1000
    QCheck.(
      quad (int_range 1 9)
        (int_range (-(1 lsl 40)) (1 lsl 40))
        (int_range 2 (1 lsl 20))
        (int_range (-(1 lsl 21)) (1 lsl 21)))
    (fun (n, lo, width, off) ->
      let p = P.make_int ~lo ~hi:(lo + width - 1) n in
      let stride = (width + n - 1) / n in
      let k = lo + off in
      let model =
        if n = 1 || k < lo then 0 else min (n - 1) ((k - lo) / stride)
      in
      P.shard_of_int p k = model
      && List.for_all
           (fun i -> P.floor_int p i = lo + (i * stride))
           (List.init (n - 1) (fun i -> i + 1)))

(* [make] over the encodings of [lo] and [hi + 1] (its upper bound is
   exclusive) is the same partition as [make_int ~lo ~hi]: every int key
   routes identically through either coordinate. *)
let prop_encoded_bounds =
  QCheck.Test.make ~name:"make over encoded int bounds routes like make_int"
    ~count:1000
    QCheck.(quad (int_range 1 9) gen_key gen_key gen_key)
    (fun (n, a, b, k) ->
      let lo = min a b and hi = max a b in
      QCheck.assume (lo < hi && hi < max_int);
      let pi = P.make_int ~lo ~hi n in
      let pb = P.make ~lo:(Key.of_int lo) ~hi:(Key.of_int (hi + 1)) n in
      List.for_all
        (fun k -> P.shard_of_binary pb (Key.of_int k) = P.shard_of_int pi k)
        (k :: (lo - 1) :: lo :: hi :: (hi + 1) :: List.init n (P.floor_int pi)))

(* Bounds inside [min_int/2, max_int/2], half of them narrow, so no
   floor lands past [max_int] (that clamp has its own unit test). *)
let arb_half_bounds =
  let gen =
    QCheck.Gen.(
      let* lo = int_range (min_int / 2) ((max_int / 2) - (1 lsl 20)) in
      let* hi =
        oneof
          [
            map (fun w -> lo + w) (int_range 1 (1 lsl 20));
            int_range (lo + 1) (max_int / 2);
          ]
      in
      return (lo, hi))
  in
  QCheck.make ~print:QCheck.Print.(pair int int) gen

let floors_and_neighbours floor n =
  List.concat_map
    (fun i ->
      let f = floor i in
      [ f - 1; f; f + 1 ])
    (List.init (n - 1) (fun i -> i + 1))

(* The scan-continuation contract: shard [i] and its successors own
   exactly the keys at or above [floor_int i]. *)
let prop_int_floor_split =
  QCheck.Test.make ~name:"int floors split the keys exactly" ~count:1000
    QCheck.(triple (int_range 2 9) arb_half_bounds gen_key)
    (fun (n, (lo, hi), k) ->
      let p = P.make_int ~lo ~hi n in
      List.for_all
        (fun k ->
          List.for_all
            (fun i -> (P.shard_of_int p k >= i) = (k >= P.floor_int p i))
            (List.init (n - 1) (fun i -> i + 1)))
        (k :: lo :: hi :: floors_and_neighbours (P.floor_int p) n))

let gen_binary_part =
  QCheck.(
    pair (int_range 2 9)
      (option (pair (string_of_size (Gen.int_range 0 10)) string)))

(* Same contract for binary keys under string comparison: the stripped
   floor compares <= exactly the keys whose slice reaches it. *)
let prop_binary_floor_split =
  QCheck.Test.make ~name:"binary floors split the keys exactly" ~count:1000
    QCheck.(pair gen_binary_part string)
    (fun ((n, bounds), k) ->
      let p =
        match bounds with
        | None -> P.make n
        | Some (a, b) ->
            let sa = Key.slice64 a 0 and sb = Key.slice64 b 0 in
            QCheck.assume (sa <> sb);
            if Int64.unsigned_compare sa sb < 0 then P.make ~lo:a ~hi:b n
            else P.make ~lo:b ~hi:a n
      in
      let probes =
        List.concat_map
          (fun i ->
            let f = P.floor_binary p i in
            let len = String.length f in
            [ f; f ^ "\000"; f ^ "x"; String.sub f 0 (max 0 (len - 1)) ])
          (List.init (n - 1) (fun i -> i + 1))
      in
      List.for_all
        (fun k ->
          List.for_all
            (fun i ->
              (P.shard_of_binary p k >= i)
              = (String.compare k (P.floor_binary p i) >= 0))
            (List.init (n - 1) (fun i -> i + 1)))
        (k :: probes))

(* Keys below [lo] go to shard 0 and keys above [hi] to the shard that
   owns [hi]; once the range holds at least n*(n-1) keys rounding the
   stride up leaves no shard empty, so that is shard [n-1]. *)
let prop_int_out_of_range =
  QCheck.Test.make ~name:"keys outside make_int's range follow key order"
    ~count:1000
    QCheck.(triple (int_range 1 9) arb_half_bounds gen_key)
    (fun (n, (lo, hi), k) ->
      let p = P.make_int ~lo ~hi n in
      let top = P.shard_of_int p hi in
      (k >= lo || P.shard_of_int p k = 0)
      && (k <= hi || P.shard_of_int p k = top)
      && (hi - lo + 1 < n * (n - 1) || top = n - 1))

let test_full_space_binary () =
  let p4 = P.make 4 in
  Alcotest.(check (list string))
    "quarter floors" [ ""; "\x40"; "\x80"; "\xc0" ]
    (List.init 4 (P.floor_binary p4));
  List.iter
    (fun (k, s) ->
      Alcotest.(check int) (Printf.sprintf "shard of %S" k) s
        (P.shard_of_binary p4 k))
    [
      ("", 0); ("\x3f\xff", 0); ("\x40", 1); ("\x7f\xff\xff\xff\xff\xff\xff\xff\xff", 1);
      ("\x80", 2); ("\xc0", 3); ("\xff\xff\xff\xff\xff\xff\xff\xff\xff", 3);
    ];
  (* 2^64 does not divide by 3: the stride rounds up to 0x5555555555555556 *)
  let p3 = P.make 3 in
  Alcotest.(check string) "third floor 1" "UUUUUUUV" (P.floor_binary p3 1);
  Alcotest.(check string) "third floor 2" "\xaa\xaa\xaa\xaa\xaa\xaa\xaa\xac"
    (P.floor_binary p3 2);
  Alcotest.(check int) "just below floor 1" 0
    (P.shard_of_binary p3 "UUUUUUUU\xff")

let test_default_int_split () =
  let p2 = P.make_int 2 in
  Alcotest.(check int) "halves meet at zero" 0 (P.floor_int p2 1);
  Alcotest.(check int) "negative keys on shard 0" 0 (P.shard_of_int p2 (-1));
  Alcotest.(check int) "non-negative keys on shard 1" 1 (P.shard_of_int p2 0);
  let p4 = P.make_int 4 in
  Alcotest.(check (list int))
    "quarter floors"
    [ min_int; min_int / 2; 0; (max_int / 2) + 1 ]
    (List.init 4 (P.floor_int p4));
  List.iter
    (fun (k, s) ->
      Alcotest.(check int) (Printf.sprintf "shard of %d" k) s
        (P.shard_of_int p4 k))
    [
      (min_int, 0); ((min_int / 2) - 1, 0); (min_int / 2, 1); (-1, 1);
      (0, 2); (max_int / 2, 2); ((max_int / 2) + 1, 3); (max_int, 3);
    ]

(* width 5 over 4 shards: stride 2, so shard 3's floor slice lies past
   max_int's. Its int floor clamps to max_int and it owns no int key. *)
let test_int_floor_clamp () =
  let lo = max_int - 4 in
  let p = P.make_int ~lo ~hi:max_int 4 in
  Alcotest.(check (list int))
    "floors" [ min_int; lo + 2; lo + 4; max_int ]
    (List.init 4 (P.floor_int p));
  Alcotest.(check (list int))
    "owners of the range" [ 0; 0; 1; 1; 2 ]
    (List.init 5 (fun i -> P.shard_of_int p (lo + i)))

let test_bad_bounds () =
  let empty_range = Invalid_argument "Bw_shard.Part.make: hi must be > lo" in
  Alcotest.check_raises "inverted binary bounds" empty_range (fun () ->
      ignore (P.make ~lo:"b" ~hi:"a" 2));
  Alcotest.check_raises "bounds equal in their first 8 bytes" empty_range
    (fun () -> ignore (P.make ~lo:"abcdefgh1" ~hi:"abcdefgh2" 2));
  Alcotest.check_raises "zero padding is not a distinct slice" empty_range
    (fun () -> ignore (P.make ~lo:"a" ~hi:"a\000" 2));
  Alcotest.check_raises "int shard count < 1"
    (Invalid_argument "Bw_shard.Part.make_int: shard count < 1") (fun () ->
      ignore (P.make_int 0));
  Alcotest.check_raises "descending int bounds"
    (Invalid_argument "Bw_shard.Part.make_int: hi must be > lo") (fun () ->
      ignore (P.make_int ~lo:3 ~hi:2 2))

let test_single_shard () =
  List.iter
    (fun p ->
      Alcotest.(check int) "count" 1 (P.count p);
      List.iter
        (fun k ->
          Alcotest.(check int) (Printf.sprintf "shard of %S" k) 0
            (P.shard_of_binary p k))
        [ ""; "a"; "m"; "zzzz"; "\xff\xff\xff\xff\xff\xff\xff\xff\xff" ];
      List.iter
        (fun k -> Alcotest.(check int) "int shard" 0 (P.shard_of_int p k))
        [ min_int; -1; 0; 42; max_int ];
      Alcotest.(check string) "binary floor" "" (P.floor_binary p 0);
      Alcotest.(check int) "int floor" min_int (P.floor_int p 0))
    [ P.make 1; P.make ~lo:"a" ~hi:"b" 1; P.make_int 1; P.make_int ~lo:0 ~hi:9 1 ]

(* ------------------------------------------------------------------ *)
(* Router semantics                                                    *)
(* ------------------------------------------------------------------ *)

let test_scan_boundaries () =
  let p = P.make_int ~lo:0 ~hi:1023 4 in
  let d = Bw_shard.route_int p (Array.init 4 (fun _ -> D.Int.btree ())) in
  for k = 0 to 1023 do
    assert (d.I.insert ~tid:0 k (k * 2))
  done;
  let scan start n =
    let seen = ref [] in
    let m = d.I.scan ~tid:0 start ~n (fun k v -> seen := (k, v) :: !seen) in
    (m, List.rev !seen)
  in
  let expect start n = List.init n (fun i -> (start + i, (start + i) * 2)) in
  let m, items = scan 250 300 in
  Alcotest.(check int) "budget met across two boundaries" 300 m;
  Alcotest.(check (list (pair int int)))
    "cross-shard scan ordered, exactly once" (expect 250 300) items;
  let m, items = scan 512 5 in
  Alcotest.(check int) "scan starting on a boundary" 5 m;
  Alcotest.(check (list (pair int int))) "boundary items" (expect 512 5) items;
  let m, items = scan (-40) 4 in
  Alcotest.(check int) "scan from below the partition range" 4 m;
  Alcotest.(check (list (pair int int))) "clamped start" (expect 0 4) items;
  let m, items = scan 1000 100 in
  Alcotest.(check int) "scan clipped at the last shard" 24 m;
  Alcotest.(check (list (pair int int))) "tail items" (expect 1000 24) items;
  let m, items = scan 0 0 in
  Alcotest.(check int) "empty budget" 0 m;
  Alcotest.(check (list (pair int int))) "no visits" [] items;
  (* point ops across shard boundaries *)
  Alcotest.(check bool) "delete boundary key" true (d.I.remove ~tid:0 512);
  let _, items = scan 511 2 in
  Alcotest.(check (list (pair int int)))
    "scan over the deleted boundary key"
    [ (511, 1022); (513, 1026) ]
    items;
  Alcotest.(check (option int)) "read routed" (Some 1600) (d.I.read ~tid:0 800);
  Alcotest.(check bool) "update routed" true (d.I.update ~tid:0 800 7);
  Alcotest.(check (option int)) "update visible" (Some 7) (d.I.read ~tid:0 800)

let test_router_misc () =
  let d = D.Int.forest ~config:tiny ~shards:3 () in
  Alcotest.(check string) "derived name" "OpenBw-Tree[3 shards]" d.I.name;
  assert (d.I.insert ~tid:0 1 1);
  Alcotest.(check bool) "memory sums over shards" true (d.I.memory_words () > 0);
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Bw_shard.route: partition has 2 shards, got 3 drivers")
    (fun () ->
      ignore
        (Bw_shard.route_int (P.make_int 2)
           (Array.init 3 (fun _ -> D.Int.btree ()))))

let test_router_rejects_empty () =
  Alcotest.check_raises "empty forest"
    (Invalid_argument "Bw_shard.route: empty forest") (fun () ->
      ignore
        (Bw_shard.route ~shard_of:(fun _ -> 0) ~floor_of:(fun _ -> 0)
           ([||] : int I.driver array)));
  Alcotest.check_raises "binary arity mismatch"
    (Invalid_argument "Bw_shard.route: partition has 3 shards, got 1 drivers")
    (fun () ->
      ignore (Bw_shard.route_binary (P.make 3) [| D.Str.btree () |]))

(* Two-letter lowercase keys over a 4-shard partition of ["a", "{"):
   scans that start anywhere, on a floor or below every key, continue
   across the string floors in key order and visit each key once. *)
let test_binary_scan_continuation () =
  let p = P.make ~lo:"a" ~hi:"{" 4 in
  let d = Bw_shard.route_binary p (Array.init 4 (fun _ -> D.Str.btree ())) in
  let letters = List.init 26 (fun i -> String.make 1 (Char.chr (97 + i))) in
  let keys = List.concat_map (fun a -> List.map (fun b -> a ^ b) letters) letters in
  List.iteri (fun i k -> assert (d.I.insert ~tid:0 k i)) keys;
  let per_shard = Array.make 4 0 in
  List.iter
    (fun k ->
      let s = P.shard_of_binary p k in
      per_shard.(s) <- per_shard.(s) + 1)
    keys;
  Alcotest.(check bool) "every shard holds keys" true
    (Array.for_all (fun c -> c > 0) per_shard);
  let scan start n =
    let seen = ref [] in
    let m = d.I.scan ~tid:0 start ~n (fun k _ -> seen := k :: !seen) in
    (m, List.rev !seen)
  in
  let expect start n =
    List.filteri (fun i _ -> i < n)
      (List.filter (fun k -> String.compare k start >= 0) keys)
  in
  List.iter
    (fun start ->
      let m, got = scan start 300 in
      let want = expect start 300 in
      Alcotest.(check int) (Printf.sprintf "count from %S" start)
        (List.length want) m;
      Alcotest.(check (list string)) (Printf.sprintf "keys from %S" start)
        want got)
    ([ ""; "a"; "fz"; "m"; "zz"; "zzz" ]
    @ List.init 3 (fun i -> P.floor_binary p (i + 1)));
  let m, got = scan "" 1000 in
  Alcotest.(check int) "whole forest" 676 m;
  Alcotest.(check (list string)) "whole forest in key order" keys got

let test_router_empty_work () =
  let d = D.Int.forest ~config:tiny ~lo:0 ~hi:99 ~shards:3 () in
  for k = 0 to 99 do
    assert (d.I.insert ~tid:0 k k)
  done;
  let visits = ref 0 in
  Alcotest.(check int) "negative scan budget" 0
    (d.I.scan ~tid:0 10 ~n:(-3) (fun _ _ -> incr visits));
  Alcotest.(check int) "no visits" 0 !visits;
  Alcotest.(check int) "empty batch, no results" 0
    (Array.length (I.exec_batch d ~tid:0 [||]));
  Alcotest.(check (option int)) "forest unchanged" (Some 42)
    (d.I.read ~tid:0 42)

(* ------------------------------------------------------------------ *)
(* Forest == single tree (observational equivalence)                   *)
(* ------------------------------------------------------------------ *)

(* Random interleaved ops over a small key space, rendered into one
   observation string: every return value and every scan visit in
   order. Scan starts may fall below the partition range and budgets
   span shard boundaries, so the continuation path is exercised. *)
let ops_gen =
  QCheck.(
    list_of_size (Gen.int_range 0 300)
      (triple (int_bound 5) (int_bound 120) (int_bound 1000)))

let observe (d : int I.driver) ops =
  let tid = 0 in
  let out = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string out) fmt in
  List.iter
    (fun (op, k, v) ->
      match op with
      | 0 -> add "i%d:%b;" k (d.I.insert ~tid k v)
      | 1 -> add "d%d:%b;" k (d.I.remove ~tid k)
      | 2 -> add "u%d:%b;" k (d.I.update ~tid k v)
      | 3 | 4 ->
          add "r%d:%s;" k
            (match d.I.read ~tid k with
            | None -> "-"
            | Some v -> string_of_int v)
      | _ ->
          let start = k - 60 and n = v mod 40 in
          let m = d.I.scan ~tid start ~n (fun k v -> add "%d=%d," k v) in
          add "#%d;" m)
    ops;
  Buffer.contents out

let prop_forest_equiv n =
  QCheck.Test.make
    ~name:(Printf.sprintf "forest of %d shards == single tree" n)
    ~count:60 ops_gen
    (fun ops ->
      let single = D.Int.bwtree ~config:tiny () in
      let forest = D.Int.forest ~config:tiny ~lo:0 ~hi:127 ~shards:n () in
      observe single ops = observe forest ops)

(* The router's batch path: one routing pass splits a batch into
   per-shard sub-batches, the shards execute through their own batch
   paths, and the results scatter back into submission order. Keys are
   uniform over [0, 120] against a [0, 127] partition, so nearly every
   batch spans shard boundaries and regularly repeats a key; results
   must agree slot for slot with per-op application to a single tree. *)
let bop_of (op, k, v) =
  match op with
  | 0 -> I.Bop_insert (k, v)
  | 1 -> I.Bop_remove k
  | 2 -> I.Bop_update (k, v)
  | 3 -> I.Bop_upsert (k, v)
  | _ -> I.Bop_read k

let apply_one (d : int I.driver) trip =
  let tid = 0 in
  match bop_of trip with
  | I.Bop_insert (k, v) -> I.Bres_applied (d.I.insert ~tid k v)
  | I.Bop_update (k, v) -> I.Bres_applied (d.I.update ~tid k v)
  | I.Bop_upsert (k, v) ->
      I.Bres_applied
        (if d.I.update ~tid k v then true else d.I.insert ~tid k v)
  | I.Bop_remove k -> I.Bres_applied (d.I.remove ~tid k)
  | I.Bop_read k -> I.Bres_value (d.I.read ~tid k)

let dump (d : int I.driver) =
  let out = ref [] in
  ignore (d.I.scan ~tid:0 0 ~n:10_000 (fun k v -> out := (k, v) :: !out));
  List.rev !out

let prop_forest_batch_equiv n =
  QCheck.Test.make
    ~name:(Printf.sprintf "forest of %d shards: batch == per-op" n)
    ~count:60
    QCheck.(pair ops_gen (int_range 1 24))
    (fun (ops, bsize) ->
      let single = D.Int.bwtree ~config:tiny () in
      let forest = D.Int.forest ~config:tiny ~lo:0 ~hi:127 ~shards:n () in
      let arr = Array.of_list ops in
      let len = Array.length arr in
      let ok = ref true in
      let i = ref 0 in
      while !i < len do
        let sz = min bsize (len - !i) in
        let chunk = Array.init sz (fun j -> bop_of arr.(!i + j)) in
        let rs = I.exec_batch forest ~tid:0 chunk in
        for j = 0 to sz - 1 do
          if rs.(j) <> apply_one single arr.(!i + j) then ok := false
        done;
        i := !i + sz
      done;
      !ok && dump forest = dump single)

(* the strict no-op claim: one shard behind the router replays a fixed
   mixed trace exactly like the bare driver *)
let test_shard1_parity () =
  let ops =
    List.concat
      [
        List.init 64 (fun i -> (0, i * 3 mod 97, i));
        List.init 32 (fun i -> (1, i * 2, 0));
        List.init 32 (fun i -> (2, i * 5 mod 97, i + 100));
        List.init 24 (fun i -> (3, i * 7 mod 97, 0));
        List.init 16 (fun i -> (5, i * 11 mod 97, 17 + i));
      ]
  in
  let single = observe (D.Int.bwtree ~config:tiny ()) ops in
  let routed =
    observe
      (Bw_shard.route_int (P.make_int 1) [| D.Int.bwtree ~config:tiny () |])
      ops
  in
  Alcotest.(check string) "identical observations" single routed

(* ------------------------------------------------------------------ *)
(* Stress oracle over a forest                                         *)
(* ------------------------------------------------------------------ *)

let test_stress_forest () =
  let cfg =
    {
      Bw_stress.short_config with
      seed = 13;
      phases = 2;
      churn_domains = 1;
      drive_advance = false;
    }
  in
  let config =
    Bwtree.Config.make ~leaf_max:32 ~inner_max:16 ~leaf_chain_max:8
      ~inner_chain_max:2 ~leaf_min:4 ~inner_min:2 ~gc_threshold:32 ()
  in
  (* partition the stress keyspace itself so the sweeps cross shards *)
  let keyspace = cfg.Bw_stress.domains * cfg.Bw_stress.keys_per_domain in
  let p = P.make_int ~lo:0 ~hi:(keyspace - 1) 3 in
  let d =
    Bw_shard.route_int p
      (Array.init 3 (fun _ -> D.Int.bwtree ~config ()))
  in
  let r = Bw_stress.run cfg (Bw_stress.of_driver d) in
  Alcotest.(check (list string)) "no invariant violations" [] r.r_violations;
  Alcotest.(check bool) "evaluated checks" true (r.r_checks > 0)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "shard"
    [
      ( "partition",
        [
          Alcotest.test_case "unit boundaries and floors" `Quick
            test_part_units;
          q prop_int_monotone;
          q prop_codec_agreement;
          q prop_binary_monotone;
          q prop_int_model;
          q prop_encoded_bounds;
          q prop_int_floor_split;
          q prop_binary_floor_split;
          q prop_int_out_of_range;
          Alcotest.test_case "full-space binary floors" `Quick
            test_full_space_binary;
          Alcotest.test_case "default int partition splits at zero" `Quick
            test_default_int_split;
          Alcotest.test_case "int floor past max_int clamps" `Quick
            test_int_floor_clamp;
          Alcotest.test_case "empty ranges rejected" `Quick test_bad_bounds;
          Alcotest.test_case "single shard owns every key" `Quick
            test_single_shard;
        ] );
      ( "router",
        [
          Alcotest.test_case "cross-shard scan continuation" `Quick
            test_scan_boundaries;
          Alcotest.test_case "name, memory, arity" `Quick test_router_misc;
          Alcotest.test_case "empty forest rejected" `Quick
            test_router_rejects_empty;
          Alcotest.test_case "string-keyed scan continuation" `Quick
            test_binary_scan_continuation;
          Alcotest.test_case "empty batch, negative budget" `Quick
            test_router_empty_work;
        ] );
      ( "equivalence",
        [
          q (prop_forest_equiv 1);
          q (prop_forest_equiv 2);
          q (prop_forest_equiv 7);
          q (prop_forest_batch_equiv 1);
          q (prop_forest_batch_equiv 3);
          Alcotest.test_case "shard=1 parity" `Quick test_shard1_parity;
        ] );
      ( "stress",
        [ Alcotest.test_case "oracle over a 3-shard forest" `Slow
            test_stress_forest ] );
    ]
