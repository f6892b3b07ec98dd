(* Property tests for packed leaf pages: the packed (binary-arena,
   branchless-search) representation must be observationally identical to
   the boxed one for build / lower_bound / iter_from / merge, the merge
   must agree with a sequential-replay oracle, and the on-disk encoding
   must round-trip byte-identically. *)

module LP = Bwtree.Leaf_page.Make (Index_iface.Int_key) (Index_iface.Int_value)
module LPS =
  Bwtree.Leaf_page.Make (Index_iface.String_key) (Index_iface.Int_value)

let q = QCheck_alcotest.to_alcotest

(* ---- generators ---- *)

(* small key space so duplicate keys, adjacent probes and delta/base
   collisions are frequent *)
let items_gen =
  QCheck.(
    list_of_size (Gen.int_range 0 400) (pair (int_bound 60) (int_bound 5)))

let sorted_items kvs =
  Array.of_list (List.stable_sort (fun (a, _) (b, _) -> compare a b) kvs)

(* short strings over a 2-letter alphabet: prefixes of each other, empty
   strings, and shared 8-byte words are all common *)
let str_key_gen =
  QCheck.Gen.(
    int_range 0 10 >>= fun len ->
    string_size ~gen:(oneofl [ 'a'; 'b' ]) (return len))

let str_items_gen =
  QCheck.(
    list_of_size (Gen.int_range 0 200)
      (pair (make ~print:Print.string str_key_gen) (int_bound 5)))

let sorted_str_items kvs =
  Array.of_list (List.stable_sort (fun (a, _) (b, _) -> compare a b) kvs)

(* ---- build / search / iterate equivalence ---- *)

(* reference lower bound over the item array *)
let ref_lb items k =
  let n = Array.length items in
  let i = ref 0 in
  while !i < n && fst items.(!i) < k do
    incr i
  done;
  !i

let prop_build_equiv =
  QCheck.Test.make ~name:"packed == boxed: build/search/iterate" ~count:300
    items_gen (fun kvs ->
      let items = sorted_items kvs in
      let p = LP.build ~packed:true items in
      let b = LP.build ~packed:false items in
      let n = Array.length items in
      assert (LP.length p = n && LP.length b = n);
      assert (n = 0 || LP.is_packed p);
      for i = 0 to n - 1 do
        assert (LP.get p i = items.(i));
        assert (LP.get b i = items.(i))
      done;
      for k = -1 to 62 do
        let want = ref_lb items k in
        assert (LP.lower_bound p k = want);
        assert (LP.lower_bound b k = want)
      done;
      (* restricted ranges must agree too (the §4.4 shortcut) *)
      for k = 0 to 60 do
        let lo = min (k mod 7) n and hi = n - min (k mod 3) n in
        if lo <= hi then
          assert (
            LP.lower_bound_in p k ~lo ~hi = LP.lower_bound_in b k ~lo ~hi)
      done;
      let pos = n / 3 in
      let seen_p = ref [] and seen_b = ref [] in
      LP.iter_from p pos (fun k v -> seen_p := (k, v) :: !seen_p);
      LP.iter_from b pos (fun k v -> seen_b := (k, v) :: !seen_b);
      assert (!seen_p = !seen_b);
      LP.slice p = LP.slice b)

let prop_build_equiv_str =
  QCheck.Test.make ~name:"packed == boxed: string keys" ~count:300
    str_items_gen (fun kvs ->
      let items = sorted_str_items kvs in
      let p = LPS.build ~packed:true items in
      let b = LPS.build ~packed:false items in
      let n = Array.length items in
      let probes =
        [ ""; "a"; "b"; "ab"; "ba"; "aaaa"; "aaaaaaaa"; "aaaaaaaab";
          "bbbbbbbbbb" ]
        @ (List.map fst kvs)
      in
      List.iter
        (fun k ->
          assert (LPS.lower_bound p k = LPS.lower_bound b k))
        probes;
      ignore n;
      LPS.slice p = LPS.slice b)

(* ---- merge oracle ---- *)

(* Sequential replay, oldest op first: an insert adds a pair, a delete
   removes one exact occurrence (no-op when absent — it refers to nothing
   visible), an update rewrites one occurrence of (k, old) to (k, new).
   This is the multiset semantics the merge's newest-first pending-delete
   walk must reproduce. *)
let oracle base ops_oldest_first =
  let remove_one st k v =
    let rec go = function
      | [] -> (false, [])
      | (k', v') :: rest when k' = k && v' = v -> (true, rest)
      | x :: rest ->
          let hit, rest' = go rest in
          (hit, x :: rest')
    in
    go st
  in
  let st =
    List.fold_left
      (fun st op ->
        match op with
        | LP.Ins (k, v) -> (k, v) :: st
        | LP.Del (k, v) -> snd (remove_one st k v)
        | LP.Upd (k, vold, vnew) ->
            let hit, st' = remove_one st k vold in
            if hit then (k, vnew) :: st' else (k, vnew) :: st)
      (Array.to_list base) ops_oldest_first
  in
  List.sort compare st

let delta_gen =
  QCheck.(
    list_of_size (Gen.int_range 0 24)
      (triple (int_bound 3) (int_bound 60) (pair (int_bound 5) (int_bound 5))))

let to_delta (sel, k, (v1, v2)) =
  match sel with
  | 0 | 3 -> LP.Ins (k, v1)
  | 1 -> LP.Del (k, v1)
  | _ -> LP.Upd (k, v1, v2)

let sortedness page =
  let ok = ref true in
  for i = 1 to LP.length page - 1 do
    if fst (LP.get page (i - 1)) > fst (LP.get page i) then ok := false
  done;
  !ok

let prop_merge_equiv =
  QCheck.Test.make
    ~name:"merge_with_deltas: packed == boxed == replay oracle" ~count:500
    QCheck.(pair items_gen delta_gen)
    (fun (kvs, raw) ->
      let items = sorted_items kvs in
      let ops_oldest_first = List.map to_delta raw in
      (* the merge takes the chain newest-first, as the tree walks it *)
      let chain = List.rev ops_oldest_first in
      let want = oracle items ops_oldest_first in
      let check base ~packed ~reuse =
        let m = LP.merge_with_deltas ~packed ~reuse base chain in
        assert (sortedness m.LP.m_page);
        assert (
          List.sort compare (Array.to_list (LP.slice m.LP.m_page)) = want);
        m.LP.m_page
      in
      let pbase = LP.build ~packed:true items in
      let bbase = LP.build ~packed:false items in
      let via_gap = check pbase ~packed:true ~reuse:true in
      let fresh = check (LP.build ~packed:true items) ~packed:true ~reuse:false in
      let boxed = check bbase ~packed:false ~reuse:true in
      (* all three representations agree elementwise and under search *)
      assert (LP.slice via_gap = LP.slice fresh);
      assert (LP.slice via_gap = LP.slice boxed);
      for k = -1 to 62 do
        assert (LP.lower_bound via_gap k = LP.lower_bound boxed k);
        assert (LP.lower_bound fresh k = LP.lower_bound boxed k)
      done;
      true)

(* ---- serialization ---- *)

let venc buf v = Buffer.add_int64_le buf (Int64.of_int v)

let vdec payload pos =
  let v = Int64.to_int (String.get_int64_le payload !pos) in
  pos := !pos + 8;
  v

let enc page =
  let buf = Buffer.create 256 in
  LP.encode buf venc page;
  Buffer.contents buf

let enc_s page =
  let buf = Buffer.create 256 in
  LPS.encode buf venc page;
  Buffer.contents buf

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"encode/decode round-trips byte-identically"
    ~count:300
    QCheck.(pair items_gen delta_gen)
    (fun (kvs, raw) ->
      let items = sorted_items kvs in
      (* exercise every construction path: fresh builds (packed and
         boxed) and a gap-reusing merge, whose arena is out of index
         order — encode must normalize it *)
      let base = LP.build ~packed:true items in
      let merged =
        (LP.merge_with_deltas ~packed:true ~reuse:true base
           (List.rev_map to_delta raw))
          .LP.m_page
      in
      List.for_all
        (fun page ->
          let e1 = enc page in
          let d = LP.decode e1 ~pos:(ref 0) ~value:(fun () -> 0) in
          ignore d;
          let pos = ref 0 in
          let d =
            LP.decode e1 ~pos ~value:(fun () -> vdec e1 pos)
          in
          assert (!pos = String.length e1);
          assert (LP.slice d = LP.slice page);
          assert (LP.length d = 0 || LP.is_packed d);
          enc d = e1)
        [ base; LP.build ~packed:false items; merged; LP.empty ])

let prop_codec_roundtrip_str =
  QCheck.Test.make ~name:"encode/decode round-trips (string keys)"
    ~count:300 str_items_gen (fun kvs ->
      let items = sorted_str_items kvs in
      let page = LPS.build ~packed:true items in
      let e1 = enc_s page in
      let pos = ref 0 in
      let d = LPS.decode e1 ~pos ~value:(fun () -> vdec e1 pos) in
      assert (LPS.slice d = LPS.slice page);
      enc_s d = e1)

let test_decode_malformed () =
  let page = LP.build ~packed:true [| (1, 10); (2, 20) |] in
  let e = enc page in
  List.iter
    (fun payload ->
      match
        LP.decode payload ~pos:(ref 0) ~value:(fun () -> 0)
      with
      | _ -> Alcotest.fail "malformed payload accepted"
      | exception Failure _ -> ())
    [
      "";
      String.sub e 0 4;
      (* item count beyond the payload *)
      "\255\255\255\255\255\255\255\255" ^ String.make 16 'x';
      (* bad flag byte *)
      (let b = Bytes.of_string e in
       Bytes.set b 8 '\042';
       Bytes.to_string b);
    ]

(* ---- gap policy ---- *)

let test_gap_reuse () =
  let items = Array.init 100 (fun i -> (i * 3, i)) in
  let base = LP.build ~packed:true items in
  (* 100 8-byte keys: 800 arena bytes + a 200-byte gap *)
  Alcotest.(check int) "gap" 200 (LP.gap_bytes base);
  (* three new keys (24 fresh bytes) fit the gap *)
  let chain = [ LP.Ins (1, 0); LP.Ins (4, 0); LP.Ins (7, 0) ] in
  let m = LP.merge_with_deltas ~reuse:true base chain in
  Alcotest.(check bool) "reused" true m.LP.m_gap_reused;
  Alcotest.(check int) "gap shrank" 176 (LP.gap_bytes m.LP.m_page);
  (* updates touch only keys the base holds: zero fresh bytes, free *)
  let m2 =
    LP.merge_with_deltas ~reuse:true m.LP.m_page [ LP.Upd (0, 0, 9) ]
  in
  Alcotest.(check bool) "update is byte-free" true m2.LP.m_gap_reused;
  Alcotest.(check int) "gap unchanged" 176 (LP.gap_bytes m2.LP.m_page);
  (* exhaust the gap: reuse must fail over to a fresh arena *)
  let big =
    List.init 30 (fun i -> LP.Ins ((i * 3) + 2, 0))
  in
  let m3 = LP.merge_with_deltas ~reuse:true m2.LP.m_page big in
  Alcotest.(check bool) "fell back to fresh arena" false m3.LP.m_gap_reused;
  Alcotest.(check bool) "contents intact" true
    (Array.length (LP.slice m3.LP.m_page) = 133);
  (* a no-reuse merge never touches the base's gap *)
  let before = LP.gap_bytes base in
  ignore (LP.merge_with_deltas ~reuse:false base chain);
  Alcotest.(check int) "snapshot merge left the base alone" before
    (LP.gap_bytes base)

let test_search_cost () =
  Alcotest.(check int) "0" 0 (LP.search_cost_n 0);
  Alcotest.(check int) "1" 1 (LP.search_cost_n 1);
  Alcotest.(check int) "2" 2 (LP.search_cost_n 2);
  Alcotest.(check int) "128" 8 (LP.search_cost_n 128);
  Alcotest.(check int) "255" 8 (LP.search_cost_n 255);
  let page = LP.build ~packed:true (Array.init 100 (fun i -> (i, i))) in
  Alcotest.(check int) "page" (LP.search_cost_n 100) (LP.search_cost page)

let () =
  Alcotest.run "leaf_page"
    [
      ( "equivalence",
        [ q prop_build_equiv; q prop_build_equiv_str; q prop_merge_equiv ] );
      ( "codec",
        [
          q prop_codec_roundtrip;
          q prop_codec_roundtrip_str;
          Alcotest.test_case "malformed payloads rejected" `Quick
            test_decode_malformed;
        ] );
      ( "policy",
        [
          Alcotest.test_case "gap reuse and fallback" `Quick test_gap_reuse;
          Alcotest.test_case "search cost" `Quick test_search_cost;
        ] );
    ]
